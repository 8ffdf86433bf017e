//! The result of one run: metrics, the correctness verdict, the JSON line
//! the benchmark ends with, and the statistics helpers behind them.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::trace::Span;

/// Every per-layer metric, with its unit, in output order.  A traced run
/// prints all of them; a layer that does not run on the workload reports 0
/// (`incremental.*` on the campaigns, everything else on `dse-incremental`).
const PER_LAYER: [(&str, &str); 25] = [
    ("sim.kernel_s", "s"),
    ("sim.kernel_ns_per_cycle", "ns"),
    ("sim.build_s", "s"),
    ("sim.cycles", "count"),
    ("sim.flits_delivered", "count"),
    ("sim.messages_delivered", "count"),
    ("analysis.suite_build_s", "s"),
    ("analysis.oracles_built", "count"),
    ("analysis.bound_query_s", "s"),
    ("analysis.bound_queries", "count"),
    ("conformance.check_s", "s"),
    ("conformance.sample_s", "s"),
    ("flow.cache_s", "s"),
    ("flow.cache_hit_ratio", "ratio"),
    ("fleet.render_s", "s"),
    ("fleet.parse_s", "s"),
    ("fleet.merge_s", "s"),
    ("fleet.bytes", "bytes"),
    ("incremental.build_s", "s"),
    ("incremental.apply_s", "s"),
    ("incremental.mutations", "count"),
    ("incremental.query_s", "s"),
    ("incremental.queries", "count"),
    ("incremental.accept_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (scenarios or candidates).
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
    /// Spans of a traced run, written out when the run ends.
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Records the outcome of one output check: a mismatch is a failure.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.fail(what.to_string());
        }
    }

    /// Records a failed operation or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {what}"));
    }

    /// Records a check of `actual` against a pinned value, if one exists.
    pub fn check_pin(&mut self, what: &str, actual: u64, pinned: Option<u64>) {
        if let Some(pinned) = pinned {
            self.check(
                &format!("{what} = {actual}, pinned {pinned}"),
                actual == pinned,
            );
        }
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(
        &mut self,
        ops_per_s: f64,
        work_per_s: f64,
        latencies: LatencySample,
        setup_s: f64,
    ) {
        let LatencySample { seen, mut kept, .. } = latencies;
        kept.sort_unstable();
        let p50 = percentile(&kept, 50);
        let p99 = percentile(&kept, 99);
        let beyond = kept.iter().filter(|&&l| l > p99).count();
        self.notes.push(format!(
            "latency: {} samples of {seen} operations, p50 {:.1} us, p99 {:.1} us \
             ({beyond} samples beyond p99)",
            kept.len(),
            micros(p50),
            micros(p99)
        ));
        self.metrics = vec![
            metric("ops_per_s", ops_per_s, "1/s"),
            metric("work_per_s", work_per_s, "1/s"),
            metric("op_latency_us.p50", micros(p50), "us"),
            metric("op_latency_us.p99", micros(p99), "us"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
    }

    /// The per-layer metrics of a traced run; layers absent from `values`
    /// did not run and report 0.
    pub fn per_layer(&mut self, values: &[(&str, f64)]) {
        assert!(
            values
                .iter()
                .all(|(n, _)| PER_LAYER.iter().any(|(m, _)| m == n)),
            "every reported layer metric is declared in PER_LAYER"
        );
        self.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                metric(name, value, unit)
            })
            .collect();
    }

    /// The single JSON line the benchmark ends with.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Writes the spans of a traced run as JSON lines under the build
    /// directory (`$CARGO_TARGET_DIR`, else `target`).
    pub fn write_trace(&self, workload: &str, seed: u64) -> std::io::Result<()> {
        let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("perfbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for span in &self.spans {
            writeln!(out, "{}", span.to_json())?;
        }
        out.flush()
    }
}

/// A uniform random sample of operation latencies (reservoir sampling),
/// so that memory stays fixed however many operations a run completes.
/// Runs with fewer operations than the reservoir keep every latency.
#[derive(Debug)]
pub struct LatencySample {
    seen: u64,
    kept: Vec<Duration>,
    state: u64,
}

impl LatencySample {
    const CAPACITY: usize = 100_000;

    pub fn new() -> Self {
        Self {
            seen: 0,
            kept: Vec::with_capacity(Self::CAPACITY),
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn record(&mut self, latency: Duration) {
        self.seen += 1;
        if self.kept.len() < Self::CAPACITY {
            self.kept.push(latency);
            return;
        }
        // xorshift64*: the slot is uniform over the operations seen so far.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let slot = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if let Some(kept) = self.kept.get_mut(slot as usize) {
            *kept = latency;
        }
    }

    /// Operations recorded.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Repeats a workload's set-up at even intervals through the measured run,
/// so that the median `setup_s` samples the same host conditions as the run
/// itself.  On a shared host a set-up of a millisecond otherwise reads
/// whatever the host did in that millisecond.
#[derive(Debug)]
pub struct SetupTimer {
    times: Vec<Duration>,
    repeats: u32,
    every: Duration,
}

impl SetupTimer {
    pub fn new(repeats: u32, budget: Duration) -> Self {
        Self {
            times: Vec::new(),
            repeats,
            every: budget / repeats,
        }
    }

    /// Times one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = setup();
        self.times.push(started.elapsed());
        value
    }

    /// Whether the next repeat is due after `measured` time of the run.
    pub fn due(&self, measured: Duration) -> bool {
        let done = self.times.len() as u32;
        done < self.repeats && measured >= self.every * done
    }

    pub fn done(&self) -> bool {
        self.times.len() as u32 >= self.repeats
    }

    pub fn median_s(&self) -> f64 {
        median_s(&self.times)
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile of an ascending slice (zero when empty).
pub fn percentile(sorted: &[Duration], pct: usize) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median of a list of durations, in seconds.
pub fn median_s(values: &[Duration]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 50).as_secs_f64()
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
