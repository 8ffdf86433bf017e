//! # wnoc-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation, plus an ablation of the two proposed mechanisms.
//!
//! | Experiment | Paper artefact | Module | Binary |
//! |------------|----------------|--------|--------|
//! | E1 | Table I (arbitration weights, 2×2 mesh) | [`table1`] | `expt-table1` |
//! | E2 | Table II (WCTT vs mesh size) | [`table2`] | `expt-table2` |
//! | E3 | Table III (normalised per-core WCET, EEMBC) | [`table3`] | `expt-table3` |
//! | E4 | Figure 2(a) (3DPP WCET vs max packet size) | [`fig2`] | `expt-fig2a` |
//! | E5 | Figure 2(b) (3DPP WCET vs placement) | [`fig2`] | `expt-fig2b` |
//! | E6 | Average performance (< 1% degradation) | [`avg_perf`] | `expt-avg-perf` |
//! | E7 | Section III slot model (3·L+S vs 3·m+m) | [`slot`] | `expt-slot-model` |
//! | A1 | Ablation: WaP alone, WaW alone, both | [`ablation`] | `expt-ablation` |
//! | B1 | Buffer-depth sweep (bound vs depth, not in paper) | [`buffer_sweep`] | `expt-buffer-sweep` |
//! | V1 | Virtual-channel sweep (bound vs VC count, not in paper) | [`vc_sweep`] | `expt-vc-sweep` |
//! | Bu1 | Bursty sweep (bound vs burst + trace replay, not in paper) | [`bursty_sweep`] | `expt-bursty-sweep` |
//! | F1 | Fault sweep (degraded-mode WCTT under link/router faults, not in paper) | [`fault_sweep`] | `expt-fault-sweep` |
//! | C1 | Conformance campaign (sim vs analytic bounds) | `wnoc-conformance` | `expt-conformance` |
//!
//! Criterion benchmarks under `benches/` measure the cost of regenerating each
//! artefact and the simulator's raw throughput, so regressions in the substrate
//! are visible.
//!
//! Golden-output snapshots of every binary live under `tests/golden/`; the
//! `golden` integration test diffs the binaries' stdout against them with a
//! normalizing comparison so refactors cannot silently change the reproduced
//! paper numbers (regenerate intentionally changed outputs with
//! `UPDATE_GOLDEN=1`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod avg_perf;
pub mod buffer_sweep;
pub mod bursty_sweep;
pub mod fault_sweep;
pub mod fig2;
pub mod slot;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod vc_sweep;

pub use ablation::Ablation;
pub use avg_perf::{AveragePerformance, AvgPerfParams};
pub use buffer_sweep::BufferSweepTable;
pub use bursty_sweep::BurstySweepTable;
pub use fault_sweep::FaultSweepTable;
pub use fig2::{Fig2Params, Figure2};
pub use slot::SlotModel;
pub use table1::Table1;
pub use table2::Table2;
pub use table3::Table3;
pub use vc_sweep::VcSweepTable;

use wnoc_conformance::Campaign;

/// A campaign constructor, `(seed, scenarios) -> Campaign`.
pub type CampaignBuilder = fn(u64, usize) -> Campaign;

/// The flags of `expt-conformance` and `expt-campaign` that select a
/// campaign dimension other than the core one, each with its campaign's
/// constructor.  At most one may be given.
pub const DIMENSION_FLAGS: [(&str, CampaignBuilder); 4] = [
    ("--buffer-depths", Campaign::buffer_sweep),
    ("--vc-sweep", Campaign::vc_sweep),
    ("--bursty-sweep", Campaign::bursty_sweep),
    ("--fault-sweep", Campaign::fault_sweep),
];

/// The campaign of `dimension` (a flag of [`DIMENSION_FLAGS`], or `None`
/// for the core dimension).
pub fn dimension_campaign(dimension: Option<&str>, seed: u64, scenarios: usize) -> Campaign {
    let build = DIMENSION_FLAGS
        .iter()
        .find(|(flag, _)| Some(*flag) == dimension)
        .map_or(Campaign::new as CampaignBuilder, |&(_, build)| build);
    build(seed, scenarios)
}

/// Command-line flags of the `expt-*` binaries that take any.  Bad input is
/// a usage error: the binary prints the problem and its usage line to
/// stderr and exits with status 2, never panics.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Args {
    /// The process's arguments (program name skipped), parsed against
    /// `usage`, the binary's usage line without the leading `usage: `.
    pub fn from_env(usage: &'static str) -> Self {
        Self {
            usage,
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// The next flag, or `None` once every argument is consumed.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Prints `problem` and the usage line to stderr and exits with status 2.
    pub fn usage_error(&self, problem: &str) -> ! {
        eprintln!("{problem}; usage: {}", self.usage);
        std::process::exit(2);
    }

    /// The value following `flag`, or a usage error when it is missing.
    pub fn value(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(value) => value,
            None => self.usage_error(&format!("{flag} requires a value")),
        }
    }

    /// The numeric value of `flag`, or a usage error.
    pub fn number<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let value = self.value(flag);
        match value.parse() {
            Ok(n) => n,
            Err(_) => self.usage_error(&format!("{flag} takes a number, not {value:?}")),
        }
    }

    /// The numeric value of `flag`, which must be at least 1, or a usage
    /// error.
    pub fn positive<T: std::str::FromStr + Default + PartialOrd>(&mut self, flag: &str) -> T {
        let n: T = self.number(flag);
        if n <= T::default() {
            self.usage_error(&format!("{flag} must be at least 1"));
        }
        n
    }

    /// Records `flag` as the campaign dimension when it is one of
    /// [`DIMENSION_FLAGS`].  A usage error when it is not (an unknown
    /// argument), or when a different dimension was already given.
    pub fn dimension_flag(&self, dimension: &mut Option<&'static str>, flag: &str) {
        let Some(&(known, _)) = DIMENSION_FLAGS.iter().find(|(name, _)| *name == flag) else {
            self.usage_error(&format!("unknown argument {flag}"));
        };
        if dimension.replace(known).is_some_and(|old| old != known) {
            self.usage_error(
                "--buffer-depths, --vc-sweep, --bursty-sweep and --fault-sweep are \
                 mutually exclusive",
            );
        }
    }
}
