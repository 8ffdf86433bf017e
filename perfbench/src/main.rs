//! `wnoc-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! One workload per process, on one thread:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <closed-loop|vc-preemptive|bursty-open-loop|dse-incremental> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics for `--seconds`
//! of batch operations (scenarios or DSE candidates, each started when the
//! previous one finished).  With `--trace 1` it replays a fixed prefix of the
//! same operations with spans around every call into a layer's public
//! functions and reports the per-layer metrics.  Both modes check the
//! outputs (see `BENCHMARK.md`) and print one JSON object as the last line
//! of standard output.  `--seconds 0` runs only the checked prefix.

mod campaign;
mod dse;
mod pins;
mod report;
mod trace;

use std::process::ExitCode;

use report::RunResult;

/// The benchmark's workloads, by the names `BENCHMARK.json` declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ClosedLoop,
    VcPreemptive,
    BurstyOpenLoop,
    DseIncremental,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ClosedLoop,
        Workload::VcPreemptive,
        Workload::BurstyOpenLoop,
        Workload::DseIncremental,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ClosedLoop => "closed-loop",
            Workload::VcPreemptive => "vc-preemptive",
            Workload::BurstyOpenLoop => "bursty-open-loop",
            Workload::DseIncremental => "dse-incremental",
        }
    }
}

/// Validated command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: wnoc-perfbench --workload <closed-loop|vc-preemptive|\
                     bursty-open-loop|dse-incremental> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed takes a whole number, got {value:?}"))?,
                );
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s <= 3600)
                        .ok_or_else(|| format!("--seconds takes 0..=3600, got {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = std::time::Duration::from_secs(args.seconds);
    let result: RunResult = match (args.workload, args.trace) {
        (Workload::DseIncremental, false) => dse::measure(args.seed, budget),
        (Workload::DseIncremental, true) => dse::trace(args.seed),
        (campaign_workload, false) => campaign::measure(campaign_workload, args.seed, budget),
        (campaign_workload, true) => campaign::trace(campaign_workload, args.seed),
    };
    if args.trace {
        if let Err(error) = result.write_trace(args.workload.name(), args.seed) {
            eprintln!("cannot write the span file: {error}");
            return ExitCode::FAILURE;
        }
    }
    for line in &result.notes {
        println!("{line}");
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
