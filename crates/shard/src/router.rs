//! The shard router: a standalone HTTP daemon that fronts a cluster of
//! `car-serve` workers.
//!
//! * `POST /v1/units` — parses the ingest body once, splits every unit
//!   into per-shard sub-units ([`crate::ring::ShardRing::split_unit`]),
//!   and forwards each worker its sub-batch in parallel. Every routed
//!   unit is also appended to a bounded replay ring so a worker that
//!   misses units can be caught up exactly. A batch is *always*
//!   answered `2xx` once it is committed to the replay ring — even when
//!   every worker is down the answer is `202` with `applied=false` and
//!   `partial=true`, never a retryable `503`, because a client retry
//!   would buffer (and later replay) the same units twice.
//! * `GET /v1/rules` — fans the query out to all live workers in
//!   parallel, merges their rule views ([`crate::merge`]), re-filters
//!   cycles at the router, and renders the merged rules through the
//!   worker serializer. Down shards are excluded; degraded responses
//!   carry `partial=true` and an `X-Car-Shards-Degraded` header. Each
//!   leg's `x-car-epoch` is collected and the merged body surfaces
//!   `epoch_min`/`epoch_max` so clients can detect cross-shard skew.
//! * `GET /v1/items` — fans out to all live workers and merges the
//!   per-item window support totals with a plain saturating sum: each
//!   transaction is owned by exactly one shard, so no support is
//!   counted twice. Degraded shards surface exactly as for rules.
//! * `GET /v1/health`, `GET /metrics`, `POST /v1/shutdown` — router
//!   health, Prometheus metrics (`car_shard_*`), graceful shutdown.
//! * `GET /v1/debug/traces` — tail-retained distributed traces: with no
//!   parameters, summaries of every retained trace (newest first); with
//!   `?trace_id=HEX`, the assembled span tree; with `&format=chrome`,
//!   the same trace as Chrome `trace_event` JSON (load it in
//!   `chrome://tracing` or Perfetto).
//!
//! Connections run on car-serve's connection loop
//! ([`car_serve::Service`]), with the worker's admission gate and head
//! deadline at car-serve's defaults. All worker traffic goes through
//! one leg runner (`RouterState::fan_out`); callers supply only how to
//! classify a worker's answer.
//!
//! ## Distributed tracing
//!
//! Every router request begins (or adopts, via `X-Car-Trace-Id` /
//! `X-Car-Parent-Span`) a trace. Fan-out legs — ingest sends, rule
//! queries, health probes — forward the trace id and a freshly minted
//! leg-span uid as the parent, so each worker's own spans (request
//! handling, mining stages, WAL appends) nest under the leg that caused
//! them. Workers return their spans in the `X-Car-Spans` response
//! header; the router decodes them, adds its own leg spans (attributed
//! with shard id, breaker state, outcome, and epoch), assembles the
//! whole tree, and offers it to a tail-based [`TraceStore`]: errored
//! and slow traces are always retained, plus a deterministic 1-in-N
//! sample of the rest.
//!
//! ## Worker lifecycle
//!
//! Worker admission is governed by a per-shard **circuit breaker**
//! ([`crate::breaker`]): a worker is `Up` while its breaker is Closed,
//! `Down` while it is Open or Half-Open, and `Stale` when it fell
//! further behind than the replay ring remembers (terminal until the
//! operator resets it). Failed exchanges — data-path sends, fan-out
//! legs, health probes — feed the breaker; at the consecutive-failure
//! threshold it opens and the worker is excluded. After the cooldown
//! the breaker admits a Half-Open probe trickle: the prober re-checks
//! the worker, computes exactly how many units it missed from its
//! accepted-unit count (`total_pushed + queue_depth`, baselined at
//! first contact), replays precisely those sub-units from the ring with
//! `?wait=true`, and only a fully caught-up probe closes the breaker
//! and re-admits the worker. Unit indices therefore stay aligned across
//! the cluster even through a worker crash and restart (WAL recovery
//! restores the acknowledged prefix; the router replays the rest).
//! Breaker states are exported as `car_shard_breaker_state` gauges and
//! a `breakers` block in `/v1/health`.
//!
//! ## Deadlines
//!
//! Every `/v1/rules` and `/v1/items` request gets a budget: the smaller
//! of the router's configured `request_budget` and the client's
//! `X-Car-Deadline-Ms` header. Each fan-out leg forwards the *remaining* budget as
//! `X-Car-Deadline-Ms`, and workers abort escalated re-detection when
//! it expires (answering `504 deadline_exceeded`), so one slow shard
//! cannot pin the whole merge past the deadline.
//!
//! ## Lock order
//!
//! `ingest` (the routing/replay state) is acquired before any
//! `workers[i]` mutex; a thread never holds two worker mutexes. The
//! rules fan-out takes worker mutexes only. `/v1/health` and `/metrics`
//! never take the ingest lock at all — they read lock-free gauge
//! mirrors — so external monitors stay responsive while a fan-out or a
//! catch-up replay holds `ingest` through slow network I/O.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use car_itemset::ItemSet;
use car_obs::counters::SHARD;
use car_obs::trace::{
    self, FinishedTrace, SpanRecord, SpanUid, TraceId, TraceStore, TraceStorePolicy,
};
use car_serve::http::{self, RequestLimits, Response, DEFAULT_MAX_BODY_BYTES};
use car_serve::json::{object, Json};
use car_serve::metrics::{Metrics, Route};
use car_serve::routes::{item_to_json, rule_to_json};
use car_serve::sync::{log_warn, LockExt};
use car_serve::{ClientResponse, Listen, RetryPolicy, RetryingClient, Service};

use crate::breaker::{Breaker, BreakerConfig, BreakerState};
use crate::merge::{
    merge_item_supports, merge_rule_views, parse_items_body, parse_rules_body,
};
use crate::ring::{PartitionKey, ShardRing};

/// How often the sleeping prober re-checks the shutdown flag.
const PROBE_POLL: Duration = Duration::from_millis(25);

/// Router startup/runtime errors.
#[derive(Debug)]
pub enum RouterError {
    /// Invalid router configuration.
    Config(String),
    /// Socket or thread-spawn failure.
    Io(std::io::Error),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Config(msg) => write!(f, "configuration error: {msg}"),
            RouterError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Everything needed to boot a router.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address (port 0 for ephemeral).
    pub addr: String,
    /// Worker addresses; index in this list is the worker's shard id.
    pub workers: Vec<String>,
    /// Threads serving router connections.
    pub threads: usize,
    /// Which transaction item selects the owning shard.
    pub key: PartitionKey,
    /// Retry policy for data-path requests to workers (per-request
    /// timeout plus exponential backoff with jitter on failures).
    pub retry: RetryPolicy,
    /// How often the prober re-checks worker health.
    pub probe_interval: Duration,
    /// Full units kept for catch-up replay; a worker that falls further
    /// behind than this is marked stale and stays excluded.
    pub replay_capacity: usize,
    /// Propagate `POST /v1/shutdown` to workers when the router stops
    /// (spawn mode owns its workers; attach mode leaves them running).
    pub shutdown_workers: bool,
    /// Per-connection socket read/write timeout on the router side.
    pub io_timeout: Duration,
    /// Maximum accepted request body size.
    pub max_body_bytes: usize,
    /// Per-shard circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Upper bound on a request's total deadline budget; the effective
    /// deadline is the smaller of this and the client's
    /// `X-Car-Deadline-Ms` header.
    pub request_budget: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7979".into(),
            workers: Vec::new(),
            threads: 4,
            key: PartitionKey::MinItem,
            retry: RetryPolicy { max_retries: 2, timeout: Duration::from_secs(2) },
            probe_interval: Duration::from_millis(250),
            replay_capacity: 512,
            shutdown_workers: false,
            io_timeout: Duration::from_secs(10),
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            breaker: BreakerConfig::default(),
            request_budget: Duration::from_secs(10),
        }
    }
}

/// A worker's admission state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// Healthy: receives ingest and rule queries.
    Up,
    /// Unreachable or failing: excluded, probed for recovery.
    Down,
    /// Fell behind the replay ring; cannot be caught up exactly, so it
    /// stays excluded (restart the cluster or the worker's data dir).
    Stale,
}

impl WorkerState {
    fn label(self) -> &'static str {
        match self {
            WorkerState::Up => "up",
            WorkerState::Down => "down",
            WorkerState::Stale => "stale",
        }
    }
}

struct Worker {
    shard_id: u32,
    addr: String,
    client: RetryingClient,
    breaker: Breaker,
    /// Terminal: the worker fell behind the replay ring and cannot be
    /// caught up exactly.
    stale: bool,
    /// The worker's accepted-unit count at first contact; units routed
    /// by this router are measured relative to it, so a worker with
    /// pre-existing history (recovered WAL) accounts correctly.
    baseline: Option<u64>,
}

impl Worker {
    /// Admission state, derived from staleness and the breaker.
    fn state(&self) -> WorkerState {
        if self.stale {
            WorkerState::Stale
        } else if self.breaker.allows_traffic() {
            WorkerState::Up
        } else {
            WorkerState::Down
        }
    }

    /// Feeds a failed exchange to the breaker; opening it excludes the
    /// worker from the data path (`Stale` is terminal and ignores
    /// further evidence).
    fn record_failure(&mut self) {
        if self.stale {
            return;
        }
        if self.breaker.record_failure(Instant::now()) {
            SHARD.add_down_transition();
            car_obs::warn!(
                "shard",
                [
                    shard = self.shard_id,
                    addr = self.addr.as_str(),
                    failures = self.breaker.consecutive_failures()
                ],
                "circuit breaker opened; worker excluded"
            );
        }
    }

    /// Feeds a successful exchange to the breaker; returns `true` when
    /// this success closed a Half-Open breaker (re-admission).
    fn record_success(&mut self) -> bool {
        if self.stale {
            return false;
        }
        self.breaker.record_success()
    }

    /// One leg's exchange with this worker (see
    /// [`RouterState::fan_out`]). `trace` is the request's trace id and
    /// this leg's span uid, forwarded so the worker's spans nest under
    /// the leg; the spans the worker sent back come with the leg.
    fn send_leg<V>(
        &mut self,
        leg: &LegRequest<'_>,
        trace: Option<(TraceId, SpanUid)>,
        body: impl FnOnce() -> Option<Vec<u8>>,
        classify: impl Fn(&mut Worker, Option<ClientResponse>) -> Leg<V>,
    ) -> (Leg<V>, Vec<SpanRecord>) {
        if self.state() != WorkerState::Up {
            return (Leg::Skipped(self.shard_id), Vec::new());
        }
        let mut headers = Vec::new();
        if let Some(deadline) = leg.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return (timed_out(self), Vec::new());
            }
            // Forward the remaining budget so the worker can abort
            // escalated re-detection instead of pinning the merge past
            // the deadline.
            headers.push((
                "X-Car-Deadline-Ms",
                u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX).to_string(),
            ));
            SHARD.add_fanout_legs(1);
        }
        if let Some((trace_id, leg_uid)) = trace {
            headers.push((trace::TRACE_ID_HEADER, trace_id.to_hex()));
            headers.push((trace::PARENT_SPAN_HEADER, leg_uid.to_hex()));
        }
        let body = body();
        let response = self.client.request_with(
            leg.method,
            leg.target,
            &headers,
            body.as_deref(),
            leg.deadline,
        );
        let spans = trace
            .zip(response.as_ref().and_then(|r| r.header(trace::SPANS_HEADER)))
            .map(|((trace_id, _), raw)| trace::decode_spans(trace_id, raw))
            .unwrap_or_default();
        (classify(self, response), spans)
    }
}

/// One worker's admission + breaker view, read under its mutex.
struct WorkerSnapshot {
    shard_id: u32,
    state: WorkerState,
    breaker: BreakerState,
    consecutive_failures: u32,
    opens: u64,
}

impl WorkerSnapshot {
    /// The `car_shard_breaker_state` gauge encoding; `Stale` extends
    /// the breaker encoding with 3 (terminally excluded).
    fn gauge_value(&self) -> u64 {
        if self.state == WorkerState::Stale {
            3
        } else {
            self.breaker.gauge_value()
        }
    }
}

/// A worker's parsed health answer, reduced to what the router needs.
struct HealthView {
    ready: bool,
    /// Units the worker has accepted responsibility for: applied
    /// (`total_pushed`) plus queued (`queue_depth`).
    accepted: u64,
}

fn probe_health(client: &mut RetryingClient) -> Option<HealthView> {
    // Probes run outside any request trace, so each one mints a fresh
    // context: probe traces are never retained router-side, but the
    // worker's request log carries a correlatable trace id.
    let headers = [
        (trace::TRACE_ID_HEADER, trace::mint_trace_id().to_hex()),
        (trace::PARENT_SPAN_HEADER, trace::mint_span_uid().to_hex()),
    ];
    let resp = client.request_once_with("GET", "/v1/health", &headers, None)?;
    if resp.status != 200 {
        return None;
    }
    let doc = Json::parse(&resp.body_text()).ok()?;
    let ready = doc.get("ready").and_then(Json::as_bool)?;
    let total = doc.get("total_pushed").and_then(Json::as_u64)?;
    let depth = doc.get("queue_depth").and_then(Json::as_u64)?;
    Some(HealthView { ready, accepted: total.saturating_add(depth) })
}

/// Routing state shared by ingest and the prober; guarded by one mutex
/// so catch-up replay and new ingest serialize.
struct IngestState {
    units_routed: u64,
    replay: VecDeque<Vec<ItemSet>>,
}

/// Everything the router's request handlers share.
pub struct RouterState {
    config: RouterConfig,
    ring: ShardRing,
    workers: Vec<Mutex<Worker>>,
    ingest: Mutex<IngestState>,
    /// Lock-free mirror of `ingest.units_routed`; `route_units` holds
    /// the ingest lock across worker sends (network I/O), so health and
    /// metrics read this instead of waiting behind it.
    units_routed_gauge: AtomicU64,
    /// Lock-free mirror of `ingest.replay.len()`, same reason.
    replay_depth_gauge: AtomicU64,
    metrics: Metrics,
    /// Tail-retained distributed traces, served by `/v1/debug/traces`.
    traces: TraceStore,
    shutdown: AtomicBool,
}

/// One fan-out leg's disposition. `V` is what a successful leg brings
/// back: a decoded query answer, or an ingest leg's `applied` flag.
enum Leg<V> {
    Ok {
        view: V,
        /// The worker's `x-car-epoch` (units applied when the body was
        /// rendered), used to surface cross-shard skew.
        epoch: Option<u64>,
    },
    Skipped(u32),
    Failed(u32),
    /// The leg's share of the deadline budget ran out (locally, or the
    /// worker answered `504 deadline_exceeded`). Not breaker evidence:
    /// a client-chosen tiny budget must not open breakers on healthy
    /// workers.
    TimedOut(u32),
    Warming,
    BadRequest(Response),
}

/// The leg's trace-attribute outcome label.
fn leg_outcome<V>(leg: &Leg<V>) -> &'static str {
    match leg {
        Leg::Ok { .. } => "ok",
        Leg::Skipped(_) => "skipped",
        Leg::Failed(_) => "failed",
        Leg::TimedOut(_) => "timed_out",
        Leg::Warming => "warming",
        Leg::BadRequest(_) => "bad_request",
    }
}

/// Decodes a worker's query body into `(units_retained, window, payload)`.
type Decode<T> = fn(&str) -> Result<(u64, u64, T), String>;

/// The request every leg of one fan-out sends.
struct LegRequest<'a> {
    /// The leg span's name: `router.leg.{ingest,rules,items}`.
    span: &'static str,
    method: &'static str,
    target: &'a str,
    /// Query legs carry the request's deadline: it is checked before
    /// sending and forwarded as `X-Car-Deadline-Ms`, and the leg counts
    /// toward `car_shard_fanout_total`. Ingest legs carry none.
    deadline: Option<Instant>,
}

fn units_to_body(units: &[Vec<ItemSet>]) -> Vec<u8> {
    let batch: Vec<Json> = units
        .iter()
        .map(|unit| {
            let txs: Vec<Json> = unit
                .iter()
                .map(|tx| {
                    Json::Array(tx.iter().map(|item| Json::from(item.id())).collect())
                })
                .collect();
            object([("transactions", Json::Array(txs))])
        })
        .collect();
    Json::Array(batch).render().into_bytes()
}

impl RouterState {
    /// The router's tail-retained trace store (tests and embedders).
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// Per-worker admission + breaker snapshot (brief per-worker locks).
    fn worker_snapshots(&self) -> Vec<WorkerSnapshot> {
        self.workers
            .iter()
            .map(|w| {
                let w = w.lock_or_recover();
                WorkerSnapshot {
                    shard_id: w.shard_id,
                    state: w.state(),
                    breaker: w.breaker.state(),
                    consecutive_failures: w.breaker.consecutive_failures(),
                    opens: w.breaker.opens(),
                }
            })
            .collect()
    }

    /// Routes a batch of full units: records them for replay, then
    /// sends each live worker its aligned sub-batch in parallel. Returns
    /// the routed-unit total and every worker's leg, in shard order.
    fn route_units(
        &self,
        units: Vec<Vec<ItemSet>>,
        wait: bool,
    ) -> (u64, Vec<(Leg<bool>, WorkerState)>) {
        let n = units.len();
        let count = self.ring.count() as usize;
        let mut ingest = self.ingest.lock_or_recover();

        // splits[shard] = this batch's sub-units for that shard.
        let mut splits: Vec<Vec<Vec<ItemSet>>> =
            (0..count).map(|_| Vec::with_capacity(n)).collect();
        for unit in &units {
            for (sub, per_shard) in
                self.ring.split_unit(unit, self.config.key).into_iter().zip(&mut splits)
            {
                per_shard.push(sub);
            }
        }
        for unit in units {
            if ingest.replay.len() >= self.config.replay_capacity {
                ingest.replay.pop_front();
            }
            ingest.replay.push_back(unit);
        }
        ingest.units_routed = ingest.units_routed.saturating_add(n as u64);
        SHARD.add_units_routed(n as u64);
        let units_routed = ingest.units_routed;
        self.units_routed_gauge.store(units_routed, Ordering::Relaxed);
        self.replay_depth_gauge.store(ingest.replay.len() as u64, Ordering::Relaxed);

        let target = if wait { "/v1/units?wait=true" } else { "/v1/units" };
        let legs = self.fan_out(
            &LegRequest {
                span: "router.leg.ingest",
                method: "POST",
                target,
                deadline: None,
            },
            |shard| splits.get(shard).map(|sub_batch| units_to_body(sub_batch)),
            |w, response| classify_ingest(w, response, n),
        );
        drop(ingest);
        (units_routed, legs)
    }

    /// The one per-worker leg runner behind every fan-out: one scoped
    /// thread per worker, each holding that worker's mutex for its whole
    /// exchange. A leg skips a worker that is not `Up`, checks and
    /// forwards the remaining deadline, stamps the trace headers, sends
    /// `body(shard)` and hands the answer to `classify`. The leg's span
    /// (`shard`, `breaker`, `outcome` and `epoch` attributes) and the
    /// worker spans it brought back are recorded into the request's
    /// trace. Returns every leg with its worker's state after the leg,
    /// in shard order; a panicked leg thread reads as `Failed`.
    fn fan_out<V: Send>(
        &self,
        leg: &LegRequest<'_>,
        body: impl Fn(usize) -> Option<Vec<u8>> + Sync,
        classify: impl Fn(&mut Worker, Option<ClientResponse>) -> Leg<V> + Sync,
    ) -> Vec<(Leg<V>, WorkerState)> {
        // Scoped leg threads do not see the request thread's trace, so
        // its context is copied in: each leg stamps it on its request and
        // times itself as a plain span record, folded in at the join.
        let ctx = trace::current_context();
        let (body, classify) = (&body, &classify);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..)
                .zip(&self.workers)
                .map(|(shard, worker)| {
                    scope.spawn(move || {
                        let mut w = worker.lock_or_recover();
                        let leg_uid = trace::mint_span_uid();
                        let start_us = trace::wall_now_us();
                        let started = Instant::now();
                        let breaker = w.breaker.state().label();
                        let (outcome, mut spans) = w.send_leg(
                            leg,
                            ctx.map(|(trace_id, _)| (trace_id, leg_uid)),
                            || body(shard),
                            classify,
                        );
                        if let Some((trace_id, root_uid)) = ctx {
                            let mut attrs = vec![
                                ("shard".into(), w.shard_id.to_string()),
                                ("breaker".into(), breaker.into()),
                                ("outcome".into(), leg_outcome(&outcome).into()),
                            ];
                            if let Leg::Ok { epoch: Some(epoch), .. } = &outcome {
                                attrs.push(("epoch".into(), epoch.to_string()));
                            }
                            spans.push(SpanRecord {
                                trace_id,
                                uid: leg_uid,
                                parent: Some(root_uid),
                                name: leg.span.to_string(),
                                start_us,
                                dur_us: u64::try_from(started.elapsed().as_micros())
                                    .unwrap_or(u64::MAX),
                                attrs,
                            });
                        }
                        (outcome, w.state(), spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(0u32..)
                .map(|(handle, shard_id)| match handle.join() {
                    Ok((outcome, state, spans)) => {
                        // Back on the request thread: fold the leg's spans
                        // (its own timing plus the worker spans it brought
                        // home) into the trace.
                        for span in spans {
                            trace::record_span(span);
                        }
                        (outcome, state)
                    }
                    Err(_) => {
                        log_warn("shard fan-out thread panicked");
                        (Leg::Failed(shard_id), WorkerState::Down)
                    }
                })
                .collect()
        })
    }

    /// Fans one query out to every live worker and answers with the
    /// merged body. `/v1/rules` and `/v1/items` differ only in `decode`,
    /// `merge` (payloads to the merged, rendered array) and `key` (the
    /// array's name in the body).
    fn query<T: Send>(
        &self,
        req: &http::Request,
        span: &'static str,
        target: &str,
        key: &'static str,
        decode: Decode<T>,
        merge: impl FnOnce(Vec<T>) -> Vec<Json>,
    ) -> Response {
        // The request's deadline budget: the router's configured bound,
        // shrunk by the client's own deadline when one is propagated in.
        let budget = req
            .header("x-car-deadline-ms")
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .map_or(self.config.request_budget, |d| d.min(self.config.request_budget));
        let deadline = Instant::now() + budget;
        let legs = self.fan_out(
            &LegRequest { span, method: "GET", target, deadline: Some(deadline) },
            |_| None,
            |w, response| classify_query(w, response, deadline, key, decode),
        );

        let (mut units_retained, mut window) = (0, 0);
        let mut payloads = Vec::new();
        let mut epochs = Vec::new();
        let mut degraded = Vec::new();
        let mut warming = false;
        let mut timed_out = false;
        for (leg, _) in legs {
            match leg {
                Leg::Ok { view: (retained, win, payload), epoch } => {
                    units_retained = units_retained.max(retained);
                    window = window.max(win);
                    epochs.extend(epoch);
                    payloads.push(payload);
                }
                Leg::Skipped(id) | Leg::Failed(id) => degraded.push(id),
                Leg::TimedOut(id) => {
                    timed_out = true;
                    degraded.push(id);
                }
                Leg::Warming => warming = true,
                // A worker rejected the parameters; every worker shares
                // the configuration, so forward its answer as ours.
                Leg::BadRequest(resp) => return resp,
            }
        }
        degraded.sort_unstable();
        if warming {
            return degrade(
                Response::error(409, "the window holds fewer units than l_max"),
                &degraded,
            );
        }
        if payloads.is_empty() {
            if timed_out {
                return degrade(Response::error(504, "deadline_exceeded"), &degraded);
            }
            return degrade(Response::error(503, "no live shard workers"), &degraded);
        }

        // Ingest is applied asynchronously per worker, so legs can answer
        // at different epochs; surfacing the spread lets clients detect a
        // merged view that matches no single-node snapshot (epoch_min !=
        // epoch_max) and re-query if they need agreement.
        let epoch_json = |e: Option<&u64>| e.map_or(Json::Null, |&e| Json::from(e));
        let rendered = merge(payloads);
        let body = object([
            ("units_retained", Json::from(units_retained)),
            ("window", Json::from(window)),
            ("epoch_min", epoch_json(epochs.iter().min())),
            ("epoch_max", epoch_json(epochs.iter().max())),
            ("count", Json::from(rendered.len())),
            ("partial", Json::from(!degraded.is_empty())),
            (
                "degraded",
                Json::Array(
                    degraded.iter().map(|&id| Json::from(u64::from(id))).collect(),
                ),
            ),
            (key, Json::Array(rendered)),
        ]);
        degrade(Response::json(200, &body), &degraded)
    }

    /// Attempts to re-admit worker `i`: waits out the breaker cooldown,
    /// verifies the worker is healthy (the Half-Open trial), computes
    /// exactly how many routed units it has not accepted, replays those
    /// sub-units from the ring, and only then lets the breaker close.
    /// Holding the ingest lock throughout keeps new units from racing
    /// past the replay.
    fn try_readmit(&self, i: usize) {
        let Some(worker) = self.workers.get(i) else { return };
        let ingest = self.ingest.lock_or_recover();
        let mut w = worker.lock_or_recover();
        if w.state() != WorkerState::Down {
            return;
        }
        if !w.breaker.probe_ready(Instant::now()) {
            // Still cooling down; no probe traffic at all.
            return;
        }
        let Some(health) = probe_health(&mut w.client) else {
            w.record_failure();
            return;
        };
        if !health.ready {
            w.record_failure();
            return;
        }
        let baseline = *w.baseline.get_or_insert(health.accepted);
        let caught_up = health.accepted.saturating_sub(baseline);
        let behind = ingest.units_routed.saturating_sub(caught_up);
        if behind > ingest.replay.len() as u64 {
            w.stale = true;
            car_obs::error!(
                "shard",
                [shard = w.shard_id, behind = behind, ring = ingest.replay.len()],
                "worker is behind the replay ring; marking stale (cannot catch up)"
            );
            return;
        }
        if behind > 0 {
            let skip = ingest.replay.len().saturating_sub(behind as usize);
            let sub_units: Vec<Vec<ItemSet>> = ingest
                .replay
                .iter()
                .skip(skip)
                .filter_map(|unit| {
                    self.ring.split_unit(unit, self.config.key).into_iter().nth(i)
                })
                .collect();
            let body = units_to_body(&sub_units);
            let resp = w.client.request("POST", "/v1/units?wait=true", Some(&body));
            if batch_fully_accepted(resp, sub_units.len()).is_none() {
                // Still flaky; reopen and restart the cooldown.
                w.record_failure();
                return;
            }
        }
        if w.record_success() {
            SHARD.add_readmission();
            SHARD.add_catchup_units(behind);
            car_obs::info!(
                "shard",
                [shard = w.shard_id, replayed = behind],
                "breaker closed; worker re-admitted after catch-up"
            );
        }
    }

    /// One prober pass: verify `Up` workers, try to re-admit `Down`
    /// ones.
    fn probe_once(&self) {
        for (i, worker) in self.workers.iter().enumerate() {
            let state = worker.lock_or_recover().state();
            match state {
                WorkerState::Up => {
                    let mut w = worker.lock_or_recover();
                    if w.state() != WorkerState::Up {
                        continue;
                    }
                    match probe_health(&mut w.client) {
                        Some(h) if h.ready => {
                            w.record_success();
                        }
                        _ => w.record_failure(),
                    }
                }
                WorkerState::Down => self.try_readmit(i),
                WorkerState::Stale => {}
            }
        }
    }
}

/// Parses a worker's batch-ingest answer and confirms every unit was
/// accepted; returns the answer's `applied` flag, or `None` when there
/// was no `2xx` answer or the worker rejected any unit (it must then be
/// caught up via replay).
fn batch_fully_accepted(resp: Option<ClientResponse>, expected: usize) -> Option<bool> {
    let resp = resp.filter(|resp| resp.status == 200 || resp.status == 202)?;
    let text = std::str::from_utf8(&resp.body).ok()?;
    let doc = Json::parse(text).ok()?;
    let accepted = doc.get("accepted").and_then(Json::as_u64)?;
    if accepted != expected as u64 {
        return None;
    }
    Some(doc.get("applied").and_then(Json::as_bool).unwrap_or(false))
}

/// Classifies an ingest leg's answer: `Ok` carries the worker's
/// `applied` flag. A rejected unit or any other answer is breaker
/// evidence; replay catches the worker up on re-admission.
fn classify_ingest(
    w: &mut Worker,
    response: Option<ClientResponse>,
    expected: usize,
) -> Leg<bool> {
    match batch_fully_accepted(response, expected) {
        Some(applied) => {
            w.record_success();
            Leg::Ok { view: applied, epoch: None }
        }
        None => {
            w.record_failure();
            Leg::Failed(w.shard_id)
        }
    }
}

/// Classifies a query leg's answer; `/v1/rules` and `/v1/items` share
/// it. Only a sick worker feeds the breaker: warming, a rejected
/// parameter and an exhausted deadline do not.
fn classify_query<T>(
    w: &mut Worker,
    response: Option<ClientResponse>,
    deadline: Instant,
    key: &str,
    decode: Decode<T>,
) -> Leg<(u64, u64, T)> {
    match response {
        Some(resp) if resp.status == 200 => match decode(&resp.body_text()) {
            Ok(view) => {
                w.record_success();
                let epoch =
                    resp.header("x-car-epoch").and_then(|v| v.parse::<u64>().ok());
                Leg::Ok { view, epoch }
            }
            Err(msg) => {
                SHARD.add_fanout_failures(1);
                car_obs::warn!(
                    "shard",
                    [shard = w.shard_id],
                    "unparsable {key} body: {msg}"
                );
                Leg::Failed(w.shard_id)
            }
        },
        Some(resp) if resp.status == 409 => Leg::Warming,
        // The worker's body is already a JSON error document; forward it
        // untouched rather than re-wrapping (double-encoding) it.
        Some(resp) if resp.status == 400 => {
            Leg::BadRequest(Response::json_bytes(400, resp.body))
        }
        Some(resp) if resp.status == 504 => timed_out(w),
        Some(_) => failed(w),
        // No answer before the deadline: the attempt was cut short by the
        // budget, not necessarily by a sick worker.
        None if Instant::now() >= deadline => timed_out(w),
        None => failed(w),
    }
}

/// A query leg lost to the deadline budget: counted, but not breaker
/// evidence.
fn timed_out<V>(w: &Worker) -> Leg<V> {
    SHARD.add_fanout_failures(1);
    SHARD.add_deadline_exceeded();
    Leg::TimedOut(w.shard_id)
}

/// A query leg lost to a failing worker: counted and fed to the breaker.
fn failed<V>(w: &mut Worker) -> Leg<V> {
    SHARD.add_fanout_failures(1);
    w.record_failure();
    Leg::Failed(w.shard_id)
}

// ---------------------------------------------------------------------------
// Request handlers
// ---------------------------------------------------------------------------

/// Adds the degraded marker header and counts the partial response.
fn degrade(resp: Response, degraded: &[u32]) -> Response {
    if degraded.is_empty() {
        return resp;
    }
    SHARD.add_partial_response();
    resp.with_header("X-Car-Shards-Degraded", degraded.len().to_string())
}

fn shard_state_json(shards: impl Iterator<Item = (u32, WorkerState)>) -> Json {
    Json::Array(
        shards
            .map(|(id, s)| {
                object([
                    ("shard_id", Json::from(u64::from(id))),
                    ("state", Json::from(s.label())),
                ])
            })
            .collect(),
    )
}

fn ingest(state: &RouterState, req: &http::Request) -> Response {
    if state.is_shutting_down() {
        return Response::error(503, "router is shutting down");
    }
    let (units, _) = match car_serve::routes::parse_units_body(&req.body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::error(400, &msg),
    };
    if units.is_empty() {
        return Response::error(400, "empty unit batch");
    }
    let n = units.len();
    let wait = matches!(req.query_param("wait"), Some("true" | "1"));
    // The batch is committed to the replay ring inside route_units, so
    // from here the answer must be a non-retryable 2xx: a 503 would make
    // RetryingClient re-send a batch the router already owns, buffering
    // and replaying the same units twice. With every worker down this is
    // a 202 with applied=false and partial=true; replay catches the
    // workers up on re-admission.
    let (units_routed, legs) = state.route_units(units, wait);
    // A leg's own outcome — not the worker's state — decides
    // degradation, so the very first failed send is already a `partial`
    // response even while the breaker is still counting failures toward
    // its threshold.
    let degraded: Vec<u32> = (0..)
        .zip(&legs)
        .filter(|(_, (leg, _))| !matches!(leg, Leg::Ok { .. }))
        .map(|(id, _)| id)
        .collect();
    let applied = wait
        && degraded.len() < legs.len()
        && !legs.iter().any(|(leg, _)| matches!(leg, Leg::Ok { view: false, .. }));
    let status = if applied { 200 } else { 202 };
    let body = object([
        ("accepted", Json::from(n)),
        ("applied", Json::from(applied)),
        ("partial", Json::from(!degraded.is_empty())),
        ("units_routed", Json::from(units_routed)),
        ("shards", shard_state_json((0..).zip(legs.iter().map(|(_, state)| *state)))),
    ]);
    degrade(Response::json(status, &body), &degraded)
}

/// Builds the worker fan-out target from the router-validated
/// parameters only, re-rendered from their parsed values. Client query
/// strings arrive percent-DECODED and must never be copied verbatim
/// into the worker request line: a value like `%0d%0a...` would inject
/// CR/LF (request smuggling) into every worker connection. Rendering
/// `u32`/`f64` values emits only `[0-9.eE-]`, which is always safe in a
/// request target; parameters the router does not understand are
/// dropped (workers ignore unknown parameters anyway).
fn worker_rules_target(
    length: Option<u32>,
    offset: Option<u32>,
    min_confidence: Option<f64>,
) -> String {
    let mut target = String::from("/v1/rules");
    let params = [
        ("length", length.map(|v| v.to_string())),
        ("offset", offset.map(|v| v.to_string())),
        // f64 Display is the shortest string that round-trips to the
        // same bits, so the worker parses the exact client value.
        ("min_confidence", min_confidence.map(|v| v.to_string())),
    ];
    for (name, value) in params.iter().filter_map(|(n, v)| v.as_ref().map(|v| (n, v))) {
        target.push(if target.len() == "/v1/rules".len() { '?' } else { '&' });
        target.push_str(name);
        target.push('=');
        target.push_str(value);
    }
    target
}

fn rules(state: &RouterState, req: &http::Request) -> Response {
    // Validated here so only parsed values ever reach the worker request
    // line; the stricter threshold check (against the worker's mining
    // configuration) still happens worker-side and surfaces as a
    // forwarded 400.
    let (length, offset, min_confidence) =
        match car_serve::routes::parse_rules_params(req) {
            Ok(params) => params,
            Err(resp) => return resp,
        };
    let target = worker_rules_target(length, offset, min_confidence.map(|q| q.value()));
    state.query(
        req,
        "router.leg.rules",
        &target,
        "rules",
        |text| parse_rules_body(text).map(|v| (v.units_retained, v.window, v.rules)),
        |views| {
            merge_rule_views(views)
                .iter()
                .filter_map(|r| rule_to_json(r, length, offset))
                .collect()
        },
    )
}

/// Fans `GET /v1/items` out to all live workers and merges the
/// per-item support totals with a plain sum — each transaction is
/// owned by exactly one shard, so no support is counted twice. Down
/// or deadline-blown shards are excluded and surface as `partial`.
fn items(state: &RouterState, req: &http::Request) -> Response {
    state.query(
        req,
        "router.leg.items",
        "/v1/items",
        "items",
        |text| parse_items_body(text).map(|v| (v.units_retained, v.window, v.items)),
        |views| merge_item_supports(views).into_iter().map(item_to_json).collect(),
    )
}

fn health(state: &RouterState) -> Response {
    let snapshots = state.worker_snapshots();
    let shards: Vec<(u32, WorkerState)> =
        snapshots.iter().map(|s| (s.shard_id, s.state)).collect();
    let degraded = shards.iter().filter(|(_, s)| *s != WorkerState::Up).count();
    // Gauge, not the ingest lock: health must answer promptly even
    // while a fan-out holds `ingest` through worker retries.
    // audit:allow(a6-relaxed-mirror) reason="documented staleness contract: the gauge is an advisory mirror of ingest-lock state so health never blocks behind a fan-out"
    let units_routed = state.units_routed_gauge.load(Ordering::Relaxed);
    let status = if state.is_shutting_down() { "shutting_down" } else { "ok" };
    let breakers = Json::Array(
        snapshots
            .iter()
            .map(|s| {
                object([
                    ("shard_id", Json::from(u64::from(s.shard_id))),
                    ("state", Json::from(s.breaker.label())),
                    (
                        "consecutive_failures",
                        Json::from(u64::from(s.consecutive_failures)),
                    ),
                    ("opens", Json::from(s.opens)),
                ])
            })
            .collect(),
    );
    Response::json(
        200,
        &object([
            ("status", Json::from(status)),
            ("ready", Json::from(!state.is_shutting_down())),
            ("role", Json::from("router")),
            ("shard_count", Json::from(u64::from(state.ring.count()))),
            ("degraded_shards", Json::from(degraded)),
            ("units_routed", Json::from(units_routed)),
            ("workers", shard_state_json(shards.iter().copied())),
            ("breakers", breakers),
        ]),
    )
}

fn metrics(state: &RouterState) -> Response {
    let snapshots = state.worker_snapshots();
    let shards: Vec<(u32, WorkerState)> =
        snapshots.iter().map(|s| (s.shard_id, s.state)).collect();
    let count_state =
        |s: WorkerState| shards.iter().filter(|(_, w)| *w == s).count() as f64;
    // audit:allow(a6-relaxed-mirror) reason="metrics scrape reads the advisory replay-depth mirror; exact depth is only meaningful under the ingest lock and a scrape must not take it"
    let replay_buffered = state.replay_depth_gauge.load(Ordering::Relaxed) as f64;
    let mut text = state.metrics.render_prometheus(&[
        ("car_shard_workers_up", "Shard workers currently admitted.", {
            count_state(WorkerState::Up)
        }),
        ("car_shard_workers_down", "Shard workers currently excluded.", {
            count_state(WorkerState::Down)
        }),
        (
            "car_shard_workers_stale",
            "Shard workers terminally behind the replay ring.",
            count_state(WorkerState::Stale),
        ),
        (
            "car_shard_replay_buffered_units",
            "Full units retained for catch-up replay.",
            replay_buffered,
        ),
    ]);
    // Per-shard breaker state as a labeled gauge; labeled samples are
    // rendered by hand because `render_prometheus` takes unlabeled
    // names only.
    text.push_str(
        "# HELP car_shard_breaker_state Per-shard circuit breaker state \
         (0=closed, 1=half_open, 2=open, 3=stale).\n\
         # TYPE car_shard_breaker_state gauge\n",
    );
    for s in &snapshots {
        text.push_str(&format!(
            "car_shard_breaker_state{{shard=\"{}\"}} {}\n",
            s.shard_id,
            s.gauge_value()
        ));
    }
    let snap = SHARD.snapshot();
    for (name, help, value) in [
        (
            "car_shard_fanout_total",
            "Query legs (rules and items) fanned out to live shard workers.",
            snap.fanout_legs,
        ),
        (
            "car_shard_fanout_failures_total",
            "Fan-out legs that failed or returned an unusable body.",
            snap.fanout_failures,
        ),
        (
            "car_shard_down_total",
            "Transitions of a worker into the down state.",
            snap.down_transitions,
        ),
        (
            "car_shard_readmissions_total",
            "Workers re-admitted after catch-up replay.",
            snap.readmissions,
        ),
        (
            "car_shard_catchup_units_total",
            "Units replayed to re-admitted workers.",
            snap.catchup_units,
        ),
        (
            "car_shard_units_routed_total",
            "Full units routed across the cluster.",
            snap.units_routed,
        ),
        (
            "car_shard_partial_responses_total",
            "Responses served with one or more shards excluded.",
            snap.partial_responses,
        ),
        (
            "car_shard_deadline_exceeded_total",
            "Fan-out legs lost to an exhausted deadline budget.",
            snap.deadline_exceeded,
        ),
    ] {
        text.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    }
    // Trace tail-retention counters (car_trace_retained_total and
    // friends) come in via render_prometheus above — the router and
    // the store share the process-global TRACE counters, so rendering
    // them here as well would emit a duplicate family.
    Response::text(200, text)
}

/// `GET /v1/debug/traces`: retained-trace summaries, or — with
/// `?trace_id=HEX` — one assembled tree, as span JSON or (with
/// `&format=chrome`) Chrome `trace_event` JSON.
fn debug_traces(state: &RouterState, req: &http::Request) -> Response {
    let Some(raw) = req.query_param("trace_id") else {
        let traces: Vec<Json> = state
            .traces
            .summaries()
            .iter()
            .map(|s| {
                object([
                    ("trace_id", Json::from(s.trace_id.to_hex())),
                    ("duration_us", Json::from(s.duration_us)),
                    ("spans", Json::from(s.spans)),
                    ("reason", Json::from(s.reason.label())),
                ])
            })
            .collect();
        return Response::json(
            200,
            &object([
                ("count", Json::from(traces.len())),
                ("capacity", Json::from(state.traces.policy().capacity)),
                ("traces", Json::Array(traces)),
            ]),
        );
    };
    let Some(trace_id) = TraceId::from_hex(raw) else {
        return Response::error(
            400,
            "invalid trace_id (need 32 lowercase hex digits, non-zero)",
        );
    };
    let Some(stored) = state.traces.get(trace_id) else {
        return Response::error(404, "no retained trace with that id");
    };
    if req.query_param("format") == Some("chrome") {
        return Response::json_bytes(
            200,
            trace::chrome_trace_json(&stored.trace).into_bytes(),
        );
    }
    let spans: Vec<Json> =
        stored.trace.spans.iter().map(car_serve::routes::span_to_json).collect();
    Response::json(
        200,
        &object([
            ("trace_id", Json::from(trace_id.to_hex())),
            ("reason", Json::from(stored.reason.label())),
            ("duration_us", Json::from(stored.trace.duration_us)),
            ("count", Json::from(spans.len())),
            ("spans", Json::Array(spans)),
        ]),
    )
}

fn shutdown(state: &RouterState) -> Response {
    state.begin_shutdown();
    Response::json(200, &object([("status", Json::from("shutting_down"))])).with_close()
}

/// The router's request-handling step for car-serve's connection loop:
/// route dispatch, then the finished trace — router legs plus the worker
/// spans they brought back — is assembled and offered for tail
/// retention. Errored traces are always kept.
impl Service for RouterState {
    const LOG_TARGET: &'static str = "shard";
    const ROOT_SPAN: &'static str = "router.request";

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn handle(&self, req: &http::Request) -> (Route, Response) {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/units") => (Route::IngestUnits, ingest(self, req)),
            ("GET", "/v1/rules") => (Route::Rules, rules(self, req)),
            ("GET", "/v1/items") => (Route::Items, items(self, req)),
            ("GET", "/v1/health") => (Route::Health, health(self)),
            ("GET", "/metrics") => (Route::Metrics, metrics(self)),
            ("POST", "/v1/shutdown") => (Route::Shutdown, shutdown(self)),
            ("GET", "/v1/debug/traces") => (Route::DebugTraces, debug_traces(self, req)),
            (
                _,
                "/v1/units" | "/v1/rules" | "/v1/items" | "/v1/health" | "/metrics"
                | "/v1/shutdown" | "/v1/debug/traces",
            ) => (Route::Other, Response::error(405, "method not allowed")),
            _ => (Route::Other, Response::error(404, "no such endpoint")),
        }
    }

    fn finish_trace(&self, finished: FinishedTrace, response: Response) -> Response {
        let errored = response.status >= 500;
        let trace_id = finished.trace_id;
        self.traces
            .offer(trace::assemble(trace_id, finished.root_uid, finished.spans), errored);
        response.with_header(trace::TRACE_ID_HEADER, trace_id.to_hex())
    }
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// Final statistics reported when the router exits.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RouterStats {
    /// HTTP requests served by the router.
    pub requests: u64,
    /// Full units routed across the cluster.
    pub units_routed: u64,
    /// Seconds the router ran.
    pub uptime: Duration,
}

/// A running router.
pub struct RouterHandle {
    /// The actually-bound address (resolves port 0).
    pub addr: SocketAddr,
    state: Arc<RouterState>,
    accept_thread: JoinHandle<()>,
    prober_thread: JoinHandle<()>,
    started: Instant,
}

impl RouterHandle {
    /// The shared state (tests and embedding callers).
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Asks the router to shut down gracefully (idempotent).
    pub fn trigger_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Blocks until the router has exited; optionally shuts workers
    /// down too (`RouterConfig::shutdown_workers`).
    pub fn wait(self) -> RouterStats {
        if self.accept_thread.join().is_err() {
            log_warn("router accept thread panicked");
        }
        if self.prober_thread.join().is_err() {
            log_warn("router prober thread panicked");
        }
        if self.state.config.shutdown_workers {
            for worker in &self.state.workers {
                let mut w = worker.lock_or_recover();
                let _ = w.client.request_once("POST", "/v1/shutdown", None);
            }
        }
        RouterStats {
            requests: self.state.metrics.total_requests(),
            // audit:allow(a6-relaxed-mirror) reason="final stats snapshot after worker shutdown; the routing threads that wrote under the ingest lock have already been joined"
            units_routed: self.state.units_routed_gauge.load(Ordering::Relaxed),
            uptime: self.started.elapsed(),
        }
    }
}

/// Boots the router: binds the listener, contacts every worker once
/// (workers that do not answer start `Down` and are re-admitted by the
/// prober), and spawns the accept and prober threads.
///
/// # Errors
///
/// [`RouterError::Config`] for an empty worker list,
/// [`RouterError::Io`] when the address cannot be bound or threads
/// cannot spawn.
pub fn run_router(config: RouterConfig) -> Result<RouterHandle, RouterError> {
    car_obs::init_from_env();
    let worker_count = u32::try_from(config.workers.len())
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| RouterError::Config("at least one worker is required".into()))?;
    let Some(ring) = ShardRing::new(worker_count) else {
        return Err(RouterError::Config("at least one worker is required".into()));
    };

    let workers: Vec<Mutex<Worker>> = config
        .workers
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let mut client = RetryingClient::new(addr.clone(), config.retry);
            let mut breaker = Breaker::new(config.breaker);
            let baseline = match probe_health(&mut client) {
                Some(h) if h.ready => Some(h.accepted),
                _ => {
                    // Never seen healthy: start Open; the prober's
                    // Half-Open trickle admits it once it answers.
                    breaker.open_immediately(Instant::now());
                    SHARD.add_down_transition();
                    None
                }
            };
            Mutex::new(Worker {
                shard_id: i as u32,
                addr: addr.clone(),
                client,
                breaker,
                stale: false,
                baseline,
            })
        })
        .collect();

    let state = Arc::new(RouterState {
        ring,
        workers,
        ingest: Mutex::new(IngestState {
            units_routed: 0,
            replay: VecDeque::with_capacity(config.replay_capacity),
        }),
        units_routed_gauge: AtomicU64::new(0),
        replay_depth_gauge: AtomicU64::new(0),
        metrics: Metrics::new(),
        traces: TraceStore::new(TraceStorePolicy::default()),
        shutdown: AtomicBool::new(false),
        config,
    });

    // The public edge gets the worker's guards at car-serve's defaults.
    let (addr, accept_thread) = Listen {
        name: "car-shard",
        threads: state.config.threads,
        io_timeout: state.config.io_timeout,
        limits: RequestLimits {
            max_body_bytes: state.config.max_body_bytes,
            header_timeout: Some(Duration::from_millis(
                car_serve::DEFAULT_HEADER_TIMEOUT_MS,
            )),
            ..RequestLimits::default()
        },
        max_inflight: car_serve::DEFAULT_MAX_INFLIGHT,
        handle_signals: false,
    }
    .spawn(&state.config.addr, Arc::clone(&state))
    .map_err(RouterError::Io)?;

    let prober_state = Arc::clone(&state);
    let prober_thread = std::thread::Builder::new()
        .name("car-shard-probe".into())
        .spawn(move || prober_loop(&prober_state))
        .map_err(|e| {
            // Unwind the accept loop before reporting the failure.
            state.begin_shutdown();
            RouterError::Io(e)
        })?;

    car_obs::info!(
        "shard",
        [addr = addr, shards = state.ring.count()],
        "shard router listening"
    );
    Ok(RouterHandle {
        addr,
        state,
        accept_thread,
        prober_thread,
        started: Instant::now(),
    })
}

fn prober_loop(state: &RouterState) {
    while !state.is_shutting_down() {
        // Sleep in short slices so shutdown is prompt.
        let mut remaining = state.config.probe_interval;
        while !remaining.is_zero() && !state.is_shutting_down() {
            let slice = remaining.min(PROBE_POLL);
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if state.is_shutting_down() {
            break;
        }
        state.probe_once();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_target_renders_only_validated_params() {
        assert_eq!(worker_rules_target(None, None, None), "/v1/rules");
        assert_eq!(worker_rules_target(Some(3), None, None), "/v1/rules?length=3");
        assert_eq!(
            worker_rules_target(Some(3), Some(1), Some(0.9)),
            "/v1/rules?length=3&offset=1&min_confidence=0.9"
        );
        assert_eq!(
            worker_rules_target(None, None, Some(0.125)),
            "/v1/rules?min_confidence=0.125"
        );
    }

    #[test]
    fn worker_target_never_contains_request_line_breakers() {
        // The target is rebuilt from parsed numbers, so no decoded
        // client bytes — CR/LF, spaces, separators — can appear even
        // for adversarial float shapes.
        for q in [0.0, 1.0, 1e-300, 0.1 + 0.2] {
            let target = worker_rules_target(Some(u32::MAX), Some(0), Some(q));
            assert!(
                target.bytes().all(|b| b.is_ascii_graphic()),
                "unsafe byte in {target:?}"
            );
            let parsed: f64 = target.rsplit('=').next().unwrap().parse().unwrap();
            assert_eq!(parsed.to_bits(), q.to_bits(), "must round-trip exactly");
        }
    }
}
