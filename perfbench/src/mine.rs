//! The batch workload: the paper's base scenario mined in-process.
//!
//! INTERLEAVED, the paper's algorithm, is the timed operation. SEQUENTIAL
//! mines the same database once per run as the oracle; its time is
//! printed but not bounded, because it swings with the host's memory
//! traffic (over ten seeds its run time spread 32% of its median, above
//! the largest bound a metric may have). The traced run times both.

use std::hint::black_box;
use std::time::{Duration, Instant};

use car_apriori::{generate_rules, Apriori, AprioriConfig, Rule};
use car_bench::{scenario, Scenario, ScenarioParams};
use car_core::interleaved::mine_interleaved;
use car_core::sequential::mine_sequential;
use car_core::{CyclicRule, InterleavedOptions, MiningOutcome};
use car_cycles::{detect_cycles_batch, minimal_cycles, BitSeq};
use car_itemset::SegmentedDb;

use crate::data;
use crate::replay::Counts;
use crate::stats::{peak_rss_mb, Report, Samples, StealGate};
use crate::trace::Tracer;
use crate::{Ctx, PerLayer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// INTERLEAVED runs in a traced run.
const TRACE_ITERS: usize = 3;

/// Rules the base scenario yields. Relabelling keeps the count, so it is
/// the same for every seed.
const PINNED_RULES: usize = 5516;

/// The paper's base scenario (`car_bench::scenario` defaults), relabelled
/// by the workload seed.
fn build(seed: u64) -> Scenario {
    let mut s = scenario("base", ScenarioParams::default());
    let units = s.db.iter_units().map(|(_, txs)| txs.to_vec()).collect();
    s.db = SegmentedDb::from_unit_itemsets(data::relabel(units, seed));
    s
}

fn interleaved(s: &Scenario) -> MiningOutcome {
    mine_interleaved(&s.db, &s.config, InterleavedOptions::all())
        .expect("the base scenario is a valid configuration")
}

fn sequential(s: &Scenario) -> MiningOutcome {
    mine_sequential(&s.db, &s.config).expect("the base scenario is a valid configuration")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setups = Samples::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        built = Some(build(ctx.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let s = built.expect("at least one set-up");
    if ctx.trace {
        traced(ctx, &s, &mut report);
        return report;
    }
    let t = Instant::now();
    let oracle = sequential(&s);
    let sequential_ms = ms(t.elapsed());
    report.check(
        oracle.rules.len() == PINNED_RULES,
        "rule count differs from the pinned count",
    );
    println!("rules {} (seed {})", oracle.rules.len(), ctx.seed);

    // [visible, phase 1, phase 2] of every run, and of the runs the
    // host stole no CPU time during.
    let mut all: [Samples; 3] = Default::default();
    let mut clean: [Samples; 3] = Default::default();
    let mut gate = StealGate::new();
    let started = Instant::now();
    while all[0].len() < 3 || started.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let outcome = black_box(interleaved(black_box(&s)));
        let wall = t.elapsed();
        report.check(
            outcome.rules == oracle.rules,
            "SEQUENTIAL and INTERLEAVED rules differ",
        );
        let sample = [ms(wall), ms(outcome.stats.phase1), ms(outcome.stats.phase2)];
        let keep = gate.clean(wall);
        for (i, v) in sample.into_iter().enumerate() {
            all[i].push(v);
            if keep {
                clean[i].push(v);
            }
        }
    }
    let steal_free = clean[0].len();
    let [visible, phase1, phase2] =
        if steal_free * 2 >= all[0].len() { clean } else { all };
    let n = visible.len();
    let units = s.db.num_units() as f64;
    report.metric("setup_s", setups.p50(), "s", setups.len());
    report.metric(
        "peak_rss_mb",
        peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
        "MB",
        1,
    );
    report.metric("visible_p50_ms", visible.p50(), "ms", n);
    report.metric("visible_p90_ms", visible.p90(), "ms", n);
    report.metric("units_per_s", units * n as f64 / (visible.sum() / 1e3), "1/s", n);
    Report::note("interleaved_ms", visible.p50(), "ms", n);
    Report::note("interleaved.phase1_ms", phase1.p50(), "ms", n);
    Report::note("interleaved.phase2_ms", phase2.p50(), "ms", n);
    Report::note("sequential_ms", sequential_ms, "ms", 1);
    Report::note("sequential.phase1_ms", ms(oracle.stats.phase1), "ms", 1);
    Report::note("sequential.phase2_ms", ms(oracle.stats.phase2), "ms", 1);
    Report::note("steal_free_runs", steal_free as f64, "count", n);
    report
}

/// SEQUENTIAL rebuilt from the public layer functions: per-unit
/// `Apriori::mine` and `generate_rules`, then `detect_cycles_batch` over
/// the rule sequences. Returns the rules and the cycles eliminated.
fn replay_sequential(s: &Scenario, tr: &mut Tracer) -> (Vec<CyclicRule>, u64) {
    let op = tr.begin_op("op.replay_sequential");
    let config = &s.config;
    let apriori = Apriori::new(
        AprioriConfig::new(config.min_support).with_counting(config.counting),
    );
    let n = s.db.num_units();
    let mut seqs: std::collections::BTreeMap<Rule, BitSeq> = Default::default();
    for (u, txs) in s.db.iter_units() {
        let frequent = tr.child("apriori.mine", op, || apriori.mine(txs));
        let rules = tr.child("apriori.rules", op, || {
            generate_rules(&frequent, config.min_confidence)
        });
        for r in rules {
            seqs.entry(r.rule).or_insert_with(|| BitSeq::zeros(n)).set(u, true);
        }
    }
    let (rules, seqs): (Vec<_>, Vec<_>) = seqs.into_iter().unzip();
    let sets = tr.child("cycles.detect", op, || {
        detect_cycles_batch(&seqs, config.cycle_bounds, 1)
    });
    let full = config.cycle_bounds.num_cycles() as u64;
    let eliminated = sets.iter().map(|c| full - c.len() as u64).sum();
    let mut out: Vec<CyclicRule> = rules
        .into_iter()
        .zip(sets)
        .filter(|(_, c)| !c.is_empty())
        .map(|(rule, c)| CyclicRule { rule, cycles: minimal_cycles(&c) })
        .collect();
    out.sort();
    tr.end(op);
    (out, eliminated)
}

/// Times one miner call as `call` under a new operation, with the phase
/// times it returns placed inside its span.
fn traced_call(
    tr: &mut Tracer,
    call: &'static str,
    phases: [&'static str; 2],
    mine: impl FnOnce() -> MiningOutcome,
) -> MiningOutcome {
    let op = tr.begin_op("op.mine");
    let span = tr.begin(call, op);
    let t = Instant::now();
    let outcome = mine();
    tr.end(span);
    tr.record(phases[0], span, t, outcome.stats.phase1);
    tr.record(phases[1], span, t + outcome.stats.phase1, outcome.stats.phase2);
    tr.end(op);
    outcome
}

fn traced(ctx: &Ctx, s: &Scenario, report: &mut Report) {
    let mut tr = Tracer::new(true);
    let oracle = traced_call(
        &mut tr,
        "core.mine_sequential",
        ["core.sequential.phase1", "core.sequential.phase2"],
        || sequential(s),
    );
    report.check(
        oracle.rules.len() == PINNED_RULES,
        "rule count differs from the pinned count",
    );
    let mut stats = oracle.stats.clone();
    for _ in 0..TRACE_ITERS {
        let outcome = traced_call(
            &mut tr,
            "core.mine_interleaved",
            ["core.interleaved.phase1", "core.interleaved.phase2"],
            || interleaved(s),
        );
        report.check(
            outcome.rules == oracle.rules,
            "SEQUENTIAL and INTERLEAVED rules differ",
        );
        stats = outcome.stats;
    }

    // Tracing overhead: the same replay untraced, then traced.
    let mut eliminated = 0;
    let mut pass = |tr: &mut Tracer, report: &mut Report| -> f64 {
        let t = Instant::now();
        let (rules, e) = replay_sequential(s, tr);
        report.check(rules == oracle.rules, "replayed SEQUENTIAL differs from the miner");
        eliminated = e;
        t.elapsed().as_secs_f64()
    };
    let off = pass(&mut Tracer::new(false), report);
    let on = pass(&mut tr, report);

    let counts = Counts::from([
        ("cycles.cycles_eliminated", eliminated as f64),
        ("core.interleaved.skipped_counts", stats.skipped_counts as f64),
        ("core.interleaved.candidates_pruned", stats.candidates_pruned_by_cycles as f64),
        ("apriori.support_computations", stats.support_computations as f64),
        ("core.rules_checked", stats.rules_checked as f64),
        ("core.bitmap_builds", stats.bitmap_builds as f64),
    ]);
    let mut layer = PerLayer::from_tracer(&tr);
    layer.counts(&counts);
    layer.set("trace.overhead_pct", (on - off) / off * 100.0, 1);
    layer.emit(ctx, &tr, report);
}
