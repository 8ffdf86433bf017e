//! Conformance campaign: cross-validates the cycle-accurate simulator against
//! every analytic WCTT bound on a randomized, seeded scenario campaign, run on
//! the parallel campaign runner.
//!
//! Usage: `expt-conformance [--scenarios N] [--seed S] [--threads T]
//!                           [--buffer-depths | --vc-sweep | --bursty-sweep
//!                            | --fault-sweep]
//!                           [--report PATH]`
//!
//! Defaults: 200 scenarios, seed 7, one worker per available core.  With
//! `--buffer-depths` the campaign sweeps the buffer-depth dimension as well
//! (uniform depths {1, 2, 4, 8, ∞-equivalent} plus seeded heterogeneous
//! per-port assignments); with `--vc-sweep` it sweeps the virtual-channel
//! dimension (VC counts 1–4 crossed with both static flow → VC assignment
//! rules) instead; with `--bursty-sweep` it samples bursty arrival-curve
//! scenarios checked against the graph-based buffer-aware oracle (see
//! `docs/ORACLES.md`); with `--fault-sweep` it injects sampled link/router
//! failures — cycle-0 activations are held to freshly built degraded-mode
//! oracles over the up*/down* rerouted flows, mid-run activations must
//! drain without deadlock (see `docs/ORACLES.md`); with `--report PATH` the
//! machine-readable JSON
//! report is written to PATH (the nightly CI artifact).  The stdout summary
//! depends only on `(scenarios, seed, dimension)` — never on the worker
//! count — so it is snapshot-testable; timing goes to stderr.  Exits
//! non-zero if any dominance or ordering violation is found.

use std::time::Instant;

use wnoc_bench::{dimension_campaign, Args};

fn main() {
    // This binary gates CI, so misconfiguration must be loud: unknown flags
    // are an error, never silently replaced by defaults.
    let mut scenarios: usize = 200;
    let mut seed: u64 = 7;
    let mut threads: usize = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut dimension: Option<&'static str> = None;
    let mut report_path: Option<String> = None;
    let mut args = Args::from_env(
        "expt-conformance [--scenarios N] [--seed S] [--threads T] \
         [--buffer-depths | --vc-sweep | --bursty-sweep | --fault-sweep] [--report PATH]",
    );
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scenarios" => scenarios = args.number(&flag),
            "--seed" => seed = args.number(&flag),
            "--threads" => threads = args.number(&flag),
            "--report" => report_path = Some(args.value(&flag)),
            other => args.dimension_flag(&mut dimension, other),
        }
    }

    let campaign = dimension_campaign(dimension, seed, scenarios);
    let start = Instant::now();
    let report = match campaign.run(threads) {
        Ok(report) => report,
        Err(error) => {
            // The error carries the failing scenario's label plus the full
            // diagnostic (a stalled run reports its stuck cycle and
            // buffered-flit count).
            eprintln!("conformance campaign aborted: {error}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "campaign of {scenarios} scenarios took {:.2?} on {threads} thread(s)",
        start.elapsed()
    );

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
