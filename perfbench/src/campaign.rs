//! The three campaign workloads: `closed-loop` (`Campaign::new`),
//! `vc-preemptive` (`Campaign::vc_sweep`) and `bursty-open-loop`
//! (`Campaign::bursty_sweep`).  One operation is one
//! `Scenario::run_with_cache` call on a single worker with one
//! `FlowSetCache`, exactly as a one-thread `Campaign::run` executes it.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use wnoc_conformance::fleet::fnv1a;
use wnoc_conformance::{
    partition, Campaign, ConformanceReport, FlowSetCache, PartialReport, Scenario, ScenarioOutcome,
};
use wnoc_core::analysis::oracle::{oracle_suite_with_counts, oracle_suite_with_curve};
use wnoc_core::{Mesh, Result};
use wnoc_sim::{LatencyStats, Simulation};

use crate::pins;
use crate::report::{LatencySample, RunResult, SetupTimer};
use crate::trace::Tracer;
use crate::Workload;

/// Times the scenario pool is generated during a run (set-up: generating
/// the pool, as `Campaign::run` does first); `setup_s` is the median.
const SETUP_REPEATS: u32 = 5;
/// Shards of the in-process fleet round trip.
const FLEET_SHARDS: usize = 4;

/// How a campaign workload is built and sized.
struct Spec {
    campaign: fn(u64, usize) -> Campaign,
    /// Scenarios generated per second of `--seconds`, about three times the
    /// rate reached on the reference machine, so the pool outlasts the run.
    pool_per_second: usize,
    /// Scenarios in the checked prefix: the first `check_ops` operations of
    /// every run, whose outputs are pinned and which the traced run replays.
    check_ops: usize,
}

fn spec(workload: Workload) -> Spec {
    match workload {
        Workload::ClosedLoop => Spec {
            campaign: Campaign::new,
            pool_per_second: 500,
            check_ops: 200,
        },
        Workload::VcPreemptive => Spec {
            campaign: Campaign::vc_sweep,
            pool_per_second: 500,
            check_ops: 200,
        },
        Workload::BurstyOpenLoop => Spec {
            campaign: Campaign::bursty_sweep,
            pool_per_second: 2000,
            check_ops: 1000,
        },
        Workload::DseIncremental => unreachable!("dse-incremental is not a campaign"),
    }
}

/// The untraced run: scenarios back to back for `budget` (and at least the
/// checked prefix), then the output checks.  The repeated set-ups are timed
/// out of the run.
pub fn measure(workload: Workload, seed: u64, budget: Duration) -> RunResult {
    let spec = spec(workload);
    let pool_len = spec.check_ops + spec.pool_per_second * budget.as_secs() as usize;
    let generate = || black_box((spec.campaign)(seed, pool_len).generate());
    let mut setups = SetupTimer::new(SETUP_REPEATS, budget);
    let pool = setups.time(generate);

    let mut result = RunResult::default();
    let mut cache = FlowSetCache::new();
    let mut latencies = LatencySample::new();
    let mut prefix = Vec::with_capacity(spec.check_ops);
    let mut cycles = 0u64;
    let mut excluded = Duration::ZERO;
    let started = Instant::now();
    for (index, scenario) in pool.iter().enumerate() {
        let measured = started.elapsed() - excluded;
        if index >= spec.check_ops && measured >= budget {
            break;
        }
        if setups.due(measured) {
            let setup_started = Instant::now();
            setups.time(generate);
            excluded += setup_started.elapsed();
        }
        let op_started = Instant::now();
        let outcome = scenario.run_with_cache(&mut cache);
        latencies.record(op_started.elapsed());
        result.attempted += 1;
        if let Some(outcome) = judge(&mut result, scenario, outcome) {
            cycles += outcome.simulated_cycles;
            if index < spec.check_ops {
                prefix.push(outcome);
            }
        }
    }
    let elapsed = (started.elapsed() - excluded).as_secs_f64();
    let ops = latencies.seen();
    if ops == pool.len() as u64 {
        result
            .notes
            .push("note: the scenario pool ran out before the time budget".into());
    }
    while !setups.done() {
        setups.time(generate);
    }

    let check = (spec.campaign)(seed, spec.check_ops);
    let pin = pins::campaign(workload.name(), seed);
    check_outputs(&mut result, &check, pin, prefix, &mut Tracer::new());
    result.notes.push(format!(
        "{}: {ops} scenarios in {elapsed:.3} s, {cycles} simulated cycles",
        workload.name(),
    ));
    result.end_to_end(
        ops as f64 / elapsed,
        cycles as f64 / elapsed,
        latencies,
        setups.median_s(),
    );
    result
}

/// Counts a failed scenario (an error or any violation); returns the
/// outcome when the scenario ran.
fn judge(
    result: &mut RunResult,
    scenario: &Scenario,
    outcome: Result<ScenarioOutcome>,
) -> Option<ScenarioOutcome> {
    match outcome {
        Ok(outcome) => {
            if !outcome.passed() {
                result.fail(format!(
                    "{}: {} dominance and {} ordering violations",
                    scenario.label(),
                    outcome.violations.len(),
                    outcome.ordering_violations.len()
                ));
            }
            Some(outcome)
        }
        Err(error) => {
            result.fail(format!("{}: {error}", scenario.label()));
            None
        }
    }
}

/// Work counted while replaying the layers of the traced scenarios.
#[derive(Debug, Default)]
struct Counters {
    cycles: u64,
    flits_delivered: u64,
    messages_delivered: u64,
    oracles_built: u64,
    bound_queries: u64,
    cache_lookups: u64,
    cache_hits: u64,
}

/// The traced run: the checked prefix as one span tree per scenario, then
/// once more untraced, the reference time of `trace.overhead_ratio` (second,
/// so that warm-up is charged to the traced pass).
pub fn trace(workload: Workload, seed: u64) -> RunResult {
    let spec = spec(workload);
    let campaign = (spec.campaign)(seed, spec.check_ops);
    let mut result = RunResult::default();

    let mut tracer = Tracer::new();
    let mut cache = FlowSetCache::new();
    let mut replay_cache = FlowSetCache::new();
    let mut counters = Counters::default();
    let mut check_s = 0.0;
    let mut prefix = Vec::with_capacity(spec.check_ops);
    let started = Instant::now();
    for index in 0..spec.check_ops {
        let op = index as u64;
        let root = tracer.open(op, None, "scenario");
        let (scenario, _) = tracer.span(op, Some(root), "conformance.sample", || {
            campaign.scenario(index)
        });
        let (outcome, run) = tracer.span(op, Some(root), "conformance.run_with_cache", || {
            scenario.run_with_cache(&mut cache)
        });
        result.attempted += 1;
        if let Some(outcome) = judge(&mut result, &scenario, outcome) {
            match replay(
                &scenario,
                outcome.dominance_checked,
                &mut replay_cache,
                &mut tracer,
                op,
                run,
                &mut counters,
            ) {
                Ok((cycles, observed)) => result.check(
                    &format!("{}: replay reproduces the run", scenario.label()),
                    cycles == outcome.simulated_cycles && observed == outcome.observed,
                ),
                Err(error) => result.fail(format!("{}: replay: {error}", scenario.label())),
            }
            // The remainder of the run after its replayed children: the
            // private dominance and ordering bookkeeping.
            check_s += tracer.get(run).duration().as_secs_f64() - tracer.children_s(run);
            prefix.push(outcome);
        }
        tracer.close(root);
    }
    let traced = started.elapsed();

    let pool = campaign.generate();
    let mut cache = FlowSetCache::new();
    let started = Instant::now();
    for scenario in &pool {
        black_box(scenario.run_with_cache(&mut cache).ok());
    }
    let untraced = started.elapsed();
    result.check(
        "the traced pass sampled the scenarios the campaign generates",
        prefix.iter().zip(&pool).all(|(o, s)| o.scenario == *s),
    );

    let pin = pins::campaign(workload.name(), seed);
    result.check_pin(
        "replayed flits delivered",
        counters.flits_delivered,
        pin.map(|p| p.flits_delivered),
    );
    result.check_pin(
        "replayed messages delivered",
        counters.messages_delivered,
        pin.map(|p| p.messages_delivered),
    );
    result.check_pin("replayed cycles", counters.cycles, pin.map(|p| p.cycles));
    let fleet_bytes = check_outputs(&mut result, &campaign, pin, prefix, &mut tracer) as f64;

    let cycles = counters.cycles as f64;
    let kernel_s = tracer.total_s("sim.kernel");
    result.per_layer(&[
        ("sim.kernel_s", kernel_s),
        ("sim.kernel_ns_per_cycle", kernel_s * 1e9 / cycles),
        ("sim.build_s", tracer.total_s("sim.build")),
        ("sim.cycles", cycles),
        ("sim.flits_delivered", counters.flits_delivered as f64),
        ("sim.messages_delivered", counters.messages_delivered as f64),
        (
            "analysis.suite_build_s",
            tracer.total_s("analysis.suite_build"),
        ),
        ("analysis.oracles_built", counters.oracles_built as f64),
        (
            "analysis.bound_query_s",
            tracer.total_s("analysis.bound_query"),
        ),
        ("analysis.bound_queries", counters.bound_queries as f64),
        ("conformance.check_s", check_s),
        ("conformance.sample_s", tracer.total_s("conformance.sample")),
        ("flow.cache_s", tracer.total_s("flow.cache")),
        (
            "flow.cache_hit_ratio",
            counters.cache_hits as f64 / counters.cache_lookups as f64,
        ),
        ("fleet.render_s", tracer.total_s("fleet.render")),
        ("fleet.parse_s", tracer.total_s("fleet.parse")),
        ("fleet.merge_s", tracer.total_s("fleet.merge")),
        ("fleet.bytes", fleet_bytes),
        (
            "trace.overhead_ratio",
            traced.as_secs_f64() / untraced.as_secs_f64(),
        ),
    ]);
    result.notes.push(format!(
        "{}: traced {} scenarios in {:.3} s, untraced {:.3} s",
        workload.name(),
        spec.check_ops,
        traced.as_secs_f64(),
        untraced.as_secs_f64()
    ));
    result.spans = tracer.into_spans();
    result
}

/// Replays, in order and under span `parent`, the public calls
/// `Scenario::run_with_cache` makes: flow cache → sim build → kernel →
/// suite build → the dominance check's bound queries.  Returns the replayed
/// simulated cycles and observations, which must equal the run's.
fn replay(
    scenario: &Scenario,
    dominance_checked: bool,
    cache: &mut FlowSetCache,
    tracer: &mut Tracer,
    op: u64,
    parent: u32,
    counters: &mut Counters,
) -> Result<(u64, LatencyStats)> {
    assert!(
        scenario.faults.is_none(),
        "the campaign workloads sample no faults"
    );
    let mesh = Mesh::square(scenario.side)?;
    let cached = cache.len();
    let (built, _) = tracer.span(op, Some(parent), "flow.cache", || {
        cache.get_or_build(&mesh, &scenario.family)
    });
    let (flows, counts) = built?;
    counters.cache_lookups += 1;
    counters.cache_hits += u64::from(cache.len() == cached);

    let config = scenario.design.config();
    let buffers = scenario.buffers.config(&config, &mesh);
    let vcs = scenario.vcs.config();
    let curve = scenario.traffic.curve();
    let (sim, _) = tracer.span(op, Some(parent), "sim.build", || {
        Simulation::with_vcs(mesh, config, &flows, &buffers, vcs)
    });
    let mut sim = sim?;
    let (report, _) = tracer.span(op, Some(parent), "sim.kernel", || match curve {
        None => sim.run_closed_loop(&flows, scenario.message_flits, scenario.cycles),
        Some(curve) => {
            // The release schedule's seed, as `run_with_cache` derives it
            // from the scenario's identity.
            let schedule_seed =
                scenario.seed ^ (scenario.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            sim.run_bursty(
                &flows,
                scenario.message_flits,
                &curve,
                scenario.cycles,
                schedule_seed,
            )
        }
    });
    let report = report?;
    let stats = sim.stats();
    counters.cycles += stats.cycles;
    counters.flits_delivered += stats.flits_delivered;
    counters.messages_delivered += stats.messages_delivered;

    let (suite, _) = tracer.span(op, Some(parent), "analysis.suite_build", || match curve {
        None => oracle_suite_with_counts(&flows, &config, mesh, &buffers, vcs, counts),
        Some(curve) => oracle_suite_with_curve(&flows, &config, mesh, &buffers, vcs, counts, curve),
    });
    let mut suite = suite?;
    counters.oracles_built += suite.len() as u64;
    if dominance_checked {
        let queries = &mut counters.bound_queries;
        tracer.span(op, Some(parent), "analysis.bound_query", || {
            for (flow, _) in report.per_flow_max() {
                if flows.route(flow).is_none() {
                    continue;
                }
                for oracle in suite.iter_mut().filter(|o| o.dominates_observation()) {
                    black_box(oracle.message_bound(flow, scenario.message_flits));
                    *queries += 1;
                }
            }
        });
    }
    Ok((stats.cycles, report.overall()))
}

/// The output checks on the outcomes of the checked prefix, `campaign`:
/// pinned work counters and report digest, then the in-process fleet round
/// trip (`partition` → `PartialReport::{compute, render_json, parse_json}`
/// → merge), whose bytes must equal a single `Campaign::run` and the run's
/// own report.  Returns the partial reports' total size in bytes.
fn check_outputs(
    result: &mut RunResult,
    campaign: &Campaign,
    pin: Option<&pins::CampaignPin>,
    prefix: Vec<ScenarioOutcome>,
    tracer: &mut Tracer,
) -> u64 {
    let seed = campaign.seed;
    let report = ConformanceReport {
        seed,
        outcomes: prefix,
    };
    let rendered = report.render_json();
    let digest = fnv1a(rendered.as_bytes());
    let cycles = report.simulated_cycles();
    let observed = report.observed().count;
    result.notes.push(format!(
        "checked prefix: {} scenarios, {cycles} cycles, {observed} observed messages, \
         report digest {digest:016x}",
        report.scenario_count()
    ));
    if pin.is_none() {
        result.notes.push(format!(
            "no pinned outputs for seed {seed}; the prefix is cross-checked only"
        ));
    }
    result.check_pin("prefix cycles", cycles, pin.map(|p| p.cycles));
    result.check_pin(
        "prefix observed messages",
        observed,
        pin.map(|p| p.observed),
    );
    result.check_pin("prefix report digest", digest, pin.map(|p| p.digest));

    match fleet_round_trip(campaign, tracer, campaign.scenarios as u64) {
        Ok((merged, bytes)) => {
            let single = campaign.run(1).map(|r| r.render_json());
            result.check(
                "merged fleet report equals a single Campaign::run",
                single.as_ref().is_ok_and(|s| *s == merged),
            );
            result.check(
                "a single Campaign::run equals the measured run's report",
                single.as_ref().is_ok_and(|s| *s == rendered),
            );
            bytes
        }
        Err(error) => {
            result.fail(format!("fleet round trip: {error}"));
            0
        }
    }
}

/// Runs the campaign as `FLEET_SHARDS` in-process shards, each through the
/// checkpoint codec, and merges them in reverse order.  Returns the merged
/// report's JSON and the partial reports' total size.  Shard `k` is traced
/// as operation `first_op + k`.
fn fleet_round_trip(
    campaign: &Campaign,
    tracer: &mut Tracer,
    first_op: u64,
) -> Result<(String, u64)> {
    let mut merged = ConformanceReport::empty(campaign.seed);
    let mut bytes = 0u64;
    for shard in partition(campaign.scenarios, FLEET_SHARDS)
        .into_iter()
        .rev()
    {
        let op = first_op + shard.index as u64;
        let root = tracer.open(op, None, "fleet.shard");
        let (partial, _) = tracer.span(op, Some(root), "fleet.compute", || {
            PartialReport::compute(campaign, shard)
        });
        let partial = partial?;
        let (text, _) = tracer.span(op, Some(root), "fleet.render", || partial.render_json());
        bytes += text.len() as u64;
        let (parsed, _) = tracer.span(op, Some(root), "fleet.parse", || {
            PartialReport::parse_json(&text, Path::new("in-memory partial report"))
        });
        let parsed = parsed?;
        tracer.span(op, Some(root), "fleet.merge", || {
            merged.merge(parsed.into_report())
        });
        tracer.close(root);
    }
    Ok((merged.render_json(), bytes))
}
