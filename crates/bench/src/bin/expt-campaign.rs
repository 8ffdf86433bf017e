//! Sharded, checkpointed conformance campaign: partitions the scenario space
//! into contiguous shard ranges, runs each shard as an independent worker
//! *process*, and merges the checkpointed partial reports into a final
//! report byte-identical to the single-process `expt-conformance` run.
//!
//! Usage: `expt-campaign --dir DIR [--scenarios N] [--seed S] [--shards K]
//!                       [--workers W]
//!                       [--buffer-depths | --vc-sweep | --bursty-sweep | --fault-sweep]
//!                       [--report PATH] [--fresh] [--halt-after-shards N]
//!                       [--shard-timeout-secs T]`
//!
//! Exit codes: 0 on a clean pass, 1 on violations or campaign errors, 2 on
//! usage errors, 3 when `--halt-after-shards` stopped the invocation early
//! (the directory is resumable — re-invoke with the same flags to continue).
//!
//! Defaults: 200 scenarios, seed 7, one shard and one worker per available
//! core.  `DIR` is the campaign directory holding per-shard checkpoints
//! (`shard-NNN.partial.json` + `shard-NNN.manifest.json`); re-invoking on an
//! interrupted directory validates every checkpoint and re-runs only the
//! missing or corrupt shards, so a killed campaign resumes from the last
//! completed shard.  A directory written by a *different* campaign
//! configuration is rejected (pass `--fresh` to wipe it).
//!
//! `--halt-after-shards N` stops the invocation after N shards complete
//! (killing in-flight workers) and exits with code 3 — a deterministic
//! "campaign died" for resume tests and the CI smoke.
//!
//! The stdout summary (shard table + conformance report) depends only on
//! `(scenarios, seed, dimension, shards)` — never on worker count, shard
//! completion order, or how many invocations it took — so it is
//! snapshot-testable; paths and timing go to stderr.  Exits non-zero if any
//! dominance or ordering violation is found.
//!
//! `--shard-timeout-secs T` arms the per-shard watchdog: a worker still
//! running after T seconds is killed and its shard retried once; a second
//! overrun aborts the campaign (exit 1) naming the shard — completed shards
//! stay checkpointed, so a plain re-invocation resumes.
//!
//! The internal flag `--worker-shard K` is how the orchestrator invokes
//! itself as a shard worker; it is not part of the user interface.

use std::process::{Command, Stdio};
use std::time::Instant;

use wnoc_bench::{dimension_campaign, Args};
use wnoc_conformance::Fleet;

fn main() {
    // This binary gates CI, so misconfiguration must be loud: unknown flags
    // are an error, never silently replaced by defaults.
    let default_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut dir: Option<String> = None;
    let mut scenarios: usize = 200;
    let mut seed: u64 = 7;
    let mut shards: usize = default_parallelism;
    let mut workers: usize = default_parallelism;
    let mut dimension: Option<&'static str> = None;
    let mut report_path: Option<String> = None;
    let mut fresh = false;
    let mut halt_after: Option<usize> = None;
    let mut shard_timeout_secs: Option<u64> = None;
    let mut worker_shard: Option<usize> = None;
    let mut args = Args::from_env(
        "expt-campaign --dir DIR [--scenarios N] [--seed S] [--shards K] [--workers W] \
         [--buffer-depths | --vc-sweep | --bursty-sweep | --fault-sweep] \
         [--report PATH] [--fresh] [--halt-after-shards N] [--shard-timeout-secs T]\n\
         exit codes: 0 pass, 1 violations or campaign error, 2 usage error, \
         3 halted early by --halt-after-shards (resumable — re-invoke with the same flags)",
    );
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--dir" => dir = Some(args.value(&flag)),
            "--scenarios" => scenarios = args.number(&flag),
            "--seed" => seed = args.number(&flag),
            "--shards" => shards = args.number(&flag),
            "--workers" => workers = args.number(&flag),
            "--report" => report_path = Some(args.value(&flag)),
            "--fresh" => fresh = true,
            "--halt-after-shards" => halt_after = Some(args.number(&flag)),
            "--shard-timeout-secs" => shard_timeout_secs = Some(args.number(&flag)),
            "--worker-shard" => worker_shard = Some(args.number(&flag)),
            other => args.dimension_flag(&mut dimension, other),
        }
    }
    let Some(dir) = dir else {
        args.usage_error("expt-campaign requires --dir DIR (the campaign checkpoint directory)");
    };

    let campaign = dimension_campaign(dimension, seed, scenarios);
    let mut fleet = Fleet::new(campaign, shards, &dir);
    if let Some(secs) = shard_timeout_secs {
        fleet = fleet.with_shard_timeout(std::time::Duration::from_secs(secs));
    }

    // Worker mode: run exactly one shard, commit its checkpoint, exit.
    // Spawned by the orchestrator below with the same campaign flags.
    if let Some(index) = worker_shard {
        if let Err(error) = fleet.run_shard(index) {
            eprintln!("shard {index} worker failed: {error}");
            std::process::exit(1);
        }
        return;
    }

    if let Err(error) = fleet.prepare_dir(fresh) {
        eprintln!("cannot use campaign directory {dir}: {error}");
        std::process::exit(1);
    }

    // Orchestrator: re-invoke this binary as one worker process per
    // incomplete shard, at most `workers` at a time.  Workers inherit
    // stderr (diagnostics) but not stdout (kept snapshot-clean).
    let exe = std::env::current_exe().expect("cannot locate own executable");
    let start = Instant::now();
    let spawn = |range: &wnoc_conformance::ShardRange| {
        let mut command = Command::new(&exe);
        command
            .arg("--dir")
            .arg(&dir)
            .arg("--scenarios")
            .arg(scenarios.to_string())
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--worker-shard")
            .arg(range.index.to_string())
            .stdout(Stdio::null());
        if let Some(flag) = dimension {
            command.arg(flag);
        }
        command.spawn()
    };
    let summary = match fleet.run_with(workers, halt_after, spawn) {
        Ok(summary) => summary,
        Err(error) => {
            eprintln!("campaign fleet aborted: {error}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "fleet ran {} shard(s), reused {} checkpointed shard(s), took {:.2?} \
         on {workers} worker(s)",
        summary.ran.len(),
        summary.reused.len(),
        start.elapsed()
    );

    print!("{}", fleet.render_status(&summary));
    if summary.halted {
        eprintln!("campaign halted after {} shard(s); re-run to resume", {
            summary.ran.len()
        });
        std::process::exit(3);
    }

    let report = match fleet.merge() {
        Ok(report) => report,
        Err(error) => {
            eprintln!("campaign merge failed: {error}");
            std::process::exit(1);
        }
    };

    if let Some(path) = report_path {
        std::fs::write(&path, report.render_json())
            .unwrap_or_else(|e| panic!("cannot write report {path}: {e}"));
        eprintln!("machine-readable report written to {path}");
    }

    print!("{}", report.render());
    if !report.passed() {
        std::process::exit(1);
    }
}
