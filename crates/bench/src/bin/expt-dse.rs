//! Design-space exploration over a banked-memory manycore platform, driven
//! by the incremental analysis engine
//! ([`wnoc_core::analysis::IncrementalAnalysis`]).
//!
//! The platform scales the paper's Section V evaluation to the regime where
//! incremental analysis matters: 64 threads on a 16×16 mesh (the paper's
//! 16-thread placements tiled into each 8×8 quadrant) with four memory
//! banks at the quadrant centres, request/response flows between every
//! thread and its **nearest** bank, under the regular round-robin design.
//! (On the paper's single-controller 8×8 platform every response flow shares
//! the controller's output trunk, so one placement move legitimately changes
//! almost every bound and a from-scratch rebuild is nearly optimal — see the
//! `analysis_incremental` criterion bench, which keeps that platform as the
//! worst case.  Banked memory makes interference sets sparse, which is
//! exactly when memoized terms pay.)  The explorer hill-climbs over two
//! knobs —
//!
//! * **placement**: move one thread to a free node and re-pair it with its
//!   nearest bank (two `MoveFlow` mutations, request and response);
//! * **buffer plan**: set one `(router, input port)` depth to 1, 2, 4 or 8
//!   flits (one `SetBufferDepth` mutation);
//!
//! with seeded restarts cycling the paper's placements P0–P3 as starting
//! points, and archives every non-dominated candidate under two objectives:
//! worst per-thread round-trip WCTT (request + response message bound of the
//! `preemptive` analysis) and total buffer cost (sum of all input-buffer
//! depths).  Every candidate is evaluated through the engine's memoized
//! terms — a mutation recomputes only the flows whose interference sets
//! changed — which is what makes million-candidate budgets tractable; the
//! differential proptest (`incremental_equivalence`) plus this binary's
//! closing differential sweep pin the bounds bit-identical to from-scratch
//! oracles.
//!
//! The Pareto front is then **spot-verified in the simulator**: front
//! candidates run the event-horizon closed loop and every dominating
//! analysis bound must cover the worst observation (0 violations).
//!
//! Usage:
//!
//! ```text
//! expt-dse [--candidates N] [--seed S] [--restarts R] [--spot K]
//!          [--bench] [--scratch-sample M] [--out PATH] [--baseline PATH]
//! ```
//!
//! Defaults: 1 000 000 candidates, seed 7, 4 restarts, 5 spot checks.  The
//! default mode prints a deterministic report (golden-snapshotted as
//! `tests/golden/expt-dse.txt`; timing lines carry `took` so the snapshot
//! filters them).  `--bench` additionally replays a sample of the identical
//! candidate walk through a from-scratch mirror — every candidate rebuilds
//! the flow set and the full oracle suite, the per-scenario work of the
//! conformance campaigns — and writes `BENCH_dse.json`; the run fails below
//! 10× speedup, and with `--baseline PATH` also on a >20% candidates/sec
//! regression against the committed baseline.  A preemptive-only scratch
//! rate (rebuilding just the oracle the objective queries) is reported
//! alongside for scale.

use std::collections::HashSet;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wnoc_core::analysis::oracle::{oracle_suite_with_vcs, WcttBoundModel};
use wnoc_core::analysis::{Analysis, IncrementalAnalysis, Mutation, PreemptiveOracle};
use wnoc_core::flow::FlowSet;
use wnoc_core::port::Port;
use wnoc_core::vc::VcConfig;
use wnoc_core::{BufferConfig, Coord, FlowId, Mesh, NocConfig, NodeId};
use wnoc_sim::Simulation;
use wnoc_workloads::Placement;

/// Mesh side of the banked manycore platform.
const SIDE: u16 = 16;
/// Threads per candidate: the paper's 16-thread placement tiled into each
/// of the four 8×8 quadrants.
const THREADS: usize = 64;
/// Request message size offered by each thread, in flits.
const REQUEST_FLITS: u32 = 1;
/// Response message size returned by the memory bank, in flits.
const RESPONSE_FLITS: u32 = 4;
/// Buffer depths the explorer may assign per `(router, input port)`.
const DEPTH_CHOICES: [u32; 4] = [1, 2, 4, 8];
/// Closed-loop probing cycles per spot-verified candidate.
const SPOT_CYCLES: u64 = 3_000;
/// Scalarization weights `(w_wctt, w_cost)`, cycled per restart so different
/// restarts walk towards different regions of the front.
const WEIGHTS: [(u128, u128); 4] = [(1, 0), (4, 1), (1, 1), (1, 4)];

/// The four memory banks: quadrant centres of the mesh.
fn bank_coords() -> Vec<Coord> {
    let near = SIDE / 4;
    let far = SIDE - 1 - SIDE / 4;
    vec![
        Coord::from_row_col(near, near),
        Coord::from_row_col(near, far),
        Coord::from_row_col(far, near),
        Coord::from_row_col(far, far),
    ]
}

/// The bank a thread at `core` talks to: nearest by Manhattan distance,
/// lowest bank index on ties.
fn nearest_bank(banks: &[Coord], core: Coord) -> Coord {
    *banks
        .iter()
        .min_by_key(|b| u32::from(b.x.abs_diff(core.x)) + u32::from(b.y.abs_diff(core.y)))
        .expect("at least one bank")
}

/// Tiles a paper placement (drawn on the top-left 8×8 block) into all four
/// quadrants of the mesh: 64 cores, each quadrant a translated copy.
fn tile_quadrants(cores: &[Coord]) -> Vec<Coord> {
    let half = SIDE / 2;
    let mut tiled = Vec::with_capacity(4 * cores.len());
    for &(dx, dy) in &[(0, 0), (half, 0), (0, half), (half, half)] {
        for &core in cores {
            tiled.push(Coord::new(core.x + dx, core.y + dy));
        }
    }
    tiled
}

/// Relocates seed cores that collide with a bank node to the nearest free
/// node (deterministic: by Manhattan distance, then row-major order).
fn sanitize_placement(banks: &[Coord], cores: &[Coord]) -> Vec<Coord> {
    let bank_set: HashSet<Coord> = banks.iter().copied().collect();
    let mut taken: HashSet<Coord> = cores
        .iter()
        .copied()
        .filter(|c| !bank_set.contains(c))
        .collect();
    let mut fixed = Vec::with_capacity(cores.len());
    for &core in cores {
        if !bank_set.contains(&core) {
            fixed.push(core);
            continue;
        }
        let mut best: Option<(u32, Coord)> = None;
        for row in 0..SIDE {
            for col in 0..SIDE {
                let c = Coord::from_row_col(row, col);
                if bank_set.contains(&c) || taken.contains(&c) {
                    continue;
                }
                let d = u32::from(c.x.abs_diff(core.x)) + u32::from(c.y.abs_diff(core.y));
                if best.map_or(true, |(bd, _)| d < bd) {
                    best = Some((d, c));
                }
            }
        }
        let (_, c) = best.expect("free node exists");
        taken.insert(c);
        fixed.push(c);
    }
    fixed
}

/// One non-dominated candidate: objectives plus enough state to rebuild it.
#[derive(Clone)]
struct ParetoPoint {
    /// Worst per-thread round-trip WCTT bound (cycles).
    wctt: u64,
    /// Total buffer cost (sum of all input-buffer depths, flits).
    cost: u64,
    /// Flow endpoints of the candidate.
    pairs: Vec<(NodeId, NodeId)>,
    /// Buffer plan of the candidate.
    buffers: BufferConfig,
}

/// Inserts `point` if no archived point weakly dominates it; drops newly
/// dominated points.  Returns whether the archive changed.
fn archive_insert(archive: &mut Vec<ParetoPoint>, point: ParetoPoint) -> bool {
    if archive
        .iter()
        .any(|p| p.wctt <= point.wctt && p.cost <= point.cost)
    {
        return false;
    }
    archive.retain(|p| !(point.wctt <= p.wctt && point.cost <= p.cost));
    archive.push(point);
    true
}

/// The worst per-thread round-trip bound of the engine's current design.
fn round_trip_wctt(engine: &mut IncrementalAnalysis) -> u64 {
    let mut worst = 0u64;
    for thread in 0..THREADS {
        let request = engine
            .message_bound(Analysis::Preemptive, FlowId(2 * thread), REQUEST_FLITS)
            .expect("request flow bound");
        let response = engine
            .message_bound(Analysis::Preemptive, FlowId(2 * thread + 1), RESPONSE_FLITS)
            .expect("response flow bound");
        worst = worst.max(request.saturating_add(response));
    }
    worst
}

/// Request/response pairs of a placement, each thread against its nearest
/// bank.
fn placement_pairs(mesh: &Mesh, banks: &[Coord], cores: &[Coord]) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::with_capacity(2 * cores.len());
    for &core in cores {
        let bank = nearest_bank(banks, core);
        let core_id = mesh.node_id(core).expect("core on mesh");
        let bank_id = mesh.node_id(bank).expect("bank on mesh");
        pairs.push((core_id, bank_id));
        pairs.push((bank_id, core_id));
    }
    pairs
}

/// One proposed mutation step, with enough context to revert it.
enum Step {
    /// Thread `thread` moved `from` → `to` (two flow moves, re-pairing the
    /// thread with the bank nearest to its new position).
    Move {
        thread: usize,
        from: Coord,
        to: Coord,
    },
    /// Depth of `(node, port)` changed `from` → `to` flits.
    Depth {
        node: NodeId,
        port: Port,
        from: u32,
        to: u32,
    },
}

/// Proposes one step from `rng`: 70% placement moves, 30% depth changes.
/// `None` when 32 draws found no free target node (practically never on the
/// 16×16 platform).  Shared by the engine climber and the from-scratch
/// mirror so both consume identical random streams.
fn propose_step(
    mesh: &Mesh,
    placement: &[Coord],
    blocked: &HashSet<Coord>,
    buffers: &BufferConfig,
    rng: &mut ChaCha8Rng,
) -> Option<Step> {
    if rng.gen_range(0u32..10) < 7 {
        let thread = rng.gen_range(0usize..THREADS);
        for _ in 0..32 {
            let to = Coord::new(rng.gen_range(0..SIDE), rng.gen_range(0..SIDE));
            if !blocked.contains(&to) {
                return Some(Step::Move {
                    thread,
                    from: placement[thread],
                    to,
                });
            }
        }
        None
    } else {
        let node = NodeId(rng.gen_range(0usize..mesh.router_count()));
        let port = Port::ALL[rng.gen_range(0usize..Port::ALL.len())];
        let to = DEPTH_CHOICES[rng.gen_range(0usize..DEPTH_CHOICES.len())];
        Some(Step::Depth {
            node,
            port,
            from: buffers.depth(node, port),
            to,
        })
    }
}

/// The hill-climbing state of one restart.
struct Climber {
    engine: IncrementalAnalysis,
    placement: Vec<Coord>,
    /// Nodes a move may not target: occupied cores plus the bank nodes.
    blocked: HashSet<Coord>,
    banks: Vec<Coord>,
    /// Running total buffer cost (kept by delta; rebuilding it per candidate
    /// would dwarf the incremental evaluation).
    cost: u64,
    /// Current scalarized score under the restart's weights.
    score: u128,
    weights: (u128, u128),
}

impl Climber {
    fn new(
        mesh: &Mesh,
        config: &NocConfig,
        banks: &[Coord],
        cores: &[Coord],
        weights: (u128, u128),
    ) -> Self {
        let pairs = placement_pairs(mesh, banks, cores);
        let flows = FlowSet::from_pairs(mesh, pairs).expect("placement flows");
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine = IncrementalAnalysis::new(&flows, config, &buffers, VcConfig::single())
            .expect("valid seed design");
        let cost = u64::from(config.input_buffer_flits)
            * mesh.router_count() as u64
            * Port::ALL.len() as u64;
        let wctt = round_trip_wctt(&mut engine);
        let score = weights.0 * u128::from(wctt) + weights.1 * u128::from(cost);
        let mut blocked: HashSet<Coord> = cores.iter().copied().collect();
        blocked.extend(banks.iter().copied());
        Self {
            engine,
            placement: cores.to_vec(),
            blocked,
            banks: banks.to_vec(),
            cost,
            score,
            weights,
        }
    }

    fn propose(&self, mesh: &Mesh, rng: &mut ChaCha8Rng) -> Option<Step> {
        propose_step(
            mesh,
            &self.placement,
            &self.blocked,
            self.engine.buffers(),
            rng,
        )
    }

    fn apply_move(&mut self, thread: usize, core: Coord) {
        let mesh = *self.engine.flows().mesh();
        let bank = nearest_bank(&self.banks, core);
        let bank_id = mesh.node_id(bank).expect("bank on mesh");
        let core_id = mesh.node_id(core).expect("core on mesh");
        self.engine
            .apply(&Mutation::MoveFlow {
                id: FlowId(2 * thread),
                src: core_id,
                dst: bank_id,
            })
            .expect("legal request move");
        self.engine
            .apply(&Mutation::MoveFlow {
                id: FlowId(2 * thread + 1),
                src: bank_id,
                dst: core_id,
            })
            .expect("legal response move");
        self.blocked.remove(&self.placement[thread]);
        self.blocked.insert(core);
        self.placement[thread] = core;
    }

    /// Applies `step`, evaluates the candidate, and keeps or reverts it by
    /// hill-climbing on the scalarized score.  Returns the candidate's
    /// objectives (evaluated either way — rejected candidates still feed the
    /// Pareto archive).
    fn step(&mut self, step: &Step) -> (u64, u64, bool) {
        match *step {
            Step::Move { thread, to, .. } => self.apply_move(thread, to),
            Step::Depth {
                node,
                port,
                to,
                from,
                ..
            } => {
                self.engine
                    .apply(&Mutation::SetBufferDepth {
                        node,
                        port,
                        depth: to,
                    })
                    .expect("legal depth");
                self.cost = self.cost - u64::from(from) + u64::from(to);
            }
        }
        let wctt = round_trip_wctt(&mut self.engine);
        let cost = self.cost;
        let score = self.weights.0 * u128::from(wctt) + self.weights.1 * u128::from(cost);
        let accept = score <= self.score;
        if accept {
            self.score = score;
        } else {
            match *step {
                Step::Move { thread, from, .. } => self.apply_move(thread, from),
                Step::Depth {
                    node,
                    port,
                    from,
                    to,
                    ..
                } => {
                    self.engine
                        .apply(&Mutation::SetBufferDepth {
                            node,
                            port,
                            depth: from,
                        })
                        .expect("legal depth revert");
                    self.cost = self.cost - u64::from(to) + u64::from(from);
                }
            }
        }
        (wctt, cost, accept)
    }
}

/// The from-scratch mirror of [`Climber`]: identical proposal stream and
/// accept logic (the bounds are bit-identical, so the walk is the same), but
/// no engine — candidate state is plain endpoint pairs and a buffer plan,
/// and every evaluation rebuilds analysis state from scratch.
struct Mirror {
    placement: Vec<Coord>,
    blocked: HashSet<Coord>,
    banks: Vec<Coord>,
    pairs: Vec<(NodeId, NodeId)>,
    buffers: BufferConfig,
    cost: u64,
    score: u128,
    weights: (u128, u128),
}

impl Mirror {
    fn new(
        mesh: &Mesh,
        config: &NocConfig,
        banks: &[Coord],
        cores: &[Coord],
        weights: (u128, u128),
        seed_wctt: u64,
    ) -> Self {
        let pairs = placement_pairs(mesh, banks, cores);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let cost = u64::from(config.input_buffer_flits)
            * mesh.router_count() as u64
            * Port::ALL.len() as u64;
        let score = weights.0 * u128::from(seed_wctt) + weights.1 * u128::from(cost);
        let mut blocked: HashSet<Coord> = cores.iter().copied().collect();
        blocked.extend(banks.iter().copied());
        Self {
            placement: cores.to_vec(),
            blocked,
            banks: banks.to_vec(),
            pairs,
            buffers,
            cost,
            score,
            weights,
        }
    }

    fn apply_move(&mut self, mesh: &Mesh, thread: usize, core: Coord) {
        let bank = nearest_bank(&self.banks, core);
        let bank_id = mesh.node_id(bank).expect("bank on mesh");
        let core_id = mesh.node_id(core).expect("core on mesh");
        self.pairs[2 * thread] = (core_id, bank_id);
        self.pairs[2 * thread + 1] = (bank_id, core_id);
        self.blocked.remove(&self.placement[thread]);
        self.blocked.insert(core);
        self.placement[thread] = core;
    }

    /// Applies `step`, evaluates through `evaluate` (the from-scratch
    /// rebuild under measurement), and keeps or reverts exactly like the
    /// engine climber.
    fn step(
        &mut self,
        mesh: &Mesh,
        step: &Step,
        evaluate: impl Fn(&[(NodeId, NodeId)], &BufferConfig) -> u64,
    ) -> (u64, u64, bool) {
        match *step {
            Step::Move { thread, to, .. } => self.apply_move(mesh, thread, to),
            Step::Depth {
                node,
                port,
                to,
                from,
                ..
            } => {
                self.buffers = self.buffers.with_buffer_depth(mesh, node, port, to);
                self.cost = self.cost - u64::from(from) + u64::from(to);
            }
        }
        let wctt = evaluate(&self.pairs, &self.buffers);
        let cost = self.cost;
        let score = self.weights.0 * u128::from(wctt) + self.weights.1 * u128::from(cost);
        let accept = score <= self.score;
        if accept {
            self.score = score;
        } else {
            match *step {
                Step::Move { thread, from, .. } => self.apply_move(mesh, thread, from),
                Step::Depth {
                    node,
                    port,
                    from,
                    to,
                    ..
                } => {
                    self.buffers = self.buffers.with_buffer_depth(mesh, node, port, from);
                    self.cost = self.cost - u64::from(to) + u64::from(from);
                }
            }
        }
        (wctt, cost, accept)
    }
}

/// Spot-verifies one Pareto point in the event-horizon simulator: every
/// analysis claiming observation safety for the probe size must bound every
/// flow's worst observed traversal.  Returns `(violations, worst_observed)`.
fn spot_verify(config: &NocConfig, point: &ParetoPoint) -> (usize, u64) {
    let mesh = Mesh::square(SIDE).expect("platform mesh");
    let flows = FlowSet::from_pairs(&mesh, point.pairs.iter().copied()).expect("front flows");
    let mut sim = Simulation::with_vcs(mesh, *config, &flows, &point.buffers, VcConfig::single())
        .expect("front platform");
    let report = sim
        .run_closed_loop(&flows, RESPONSE_FLITS, SPOT_CYCLES)
        .expect("closed loop runs");
    let mut suite = oracle_suite_with_vcs(&flows, config, mesh, &point.buffers, VcConfig::single())
        .expect("oracle suite");
    let mut violations = 0usize;
    let mut worst = 0u64;
    for (flow, observed) in report.per_flow_max() {
        if flows.route(flow).is_none() {
            continue;
        }
        worst = worst.max(observed);
        for oracle in &mut suite {
            if !oracle.dominates_observation() || !oracle.dominates_message(RESPONSE_FLITS) {
                continue;
            }
            let Some(bound) = oracle.message_bound(flow, RESPONSE_FLITS) else {
                continue;
            };
            if observed > bound {
                violations += 1;
                eprintln!(
                    "spot-check violation: flow {flow} observed {observed} > {} bound {bound}",
                    oracle.name()
                );
            }
        }
    }
    (violations, worst)
}

/// Differential pin on the final engine state: every exported bound must be
/// bit-identical to a freshly built oracle suite.  Returns the comparison
/// count.
fn differential_sweep(engine: &mut IncrementalAnalysis) -> usize {
    let flows = engine.flows().clone();
    let config = *engine.config();
    let mesh = *flows.mesh();
    let buffers = engine.buffers().clone();
    let vcs = engine.vcs();
    let mut suite =
        oracle_suite_with_vcs(&flows, &config, mesh, &buffers, vcs).expect("oracle suite");
    let mut comparisons = 0usize;
    for oracle in &mut suite {
        let analysis = Analysis::from_name(oracle.name()).expect("known oracle");
        for index in 0..flows.len() {
            let id = FlowId(index);
            for size in [REQUEST_FLITS, RESPONSE_FLITS] {
                assert_eq!(
                    engine.packet_bound(analysis, id, size),
                    oracle.packet_bound(id, size),
                    "packet bound diverged: {} {id} size {size}",
                    oracle.name()
                );
                assert_eq!(
                    engine.message_bound(analysis, id, size),
                    oracle.message_bound(id, size),
                    "message bound diverged: {} {id} size {size}",
                    oracle.name()
                );
                comparisons += 2;
            }
        }
    }
    comparisons
}

/// Full recompute of a candidate: rebuild the flow set and the whole oracle
/// suite — the per-scenario work of the conformance campaigns, and the
/// from-scratch equivalent of the all-analysis state the engine keeps
/// consistent at every candidate — then answer the objective from it.
fn scratch_suite_round_trip(
    mesh: &Mesh,
    config: &NocConfig,
    pairs: &[(NodeId, NodeId)],
    buffers: &BufferConfig,
) -> u64 {
    let flows = FlowSet::from_pairs(mesh, pairs.iter().copied()).expect("scratch flows");
    let mut suite = oracle_suite_with_vcs(&flows, config, *mesh, buffers, VcConfig::single())
        .expect("scratch suite");
    let oracle = suite
        .iter_mut()
        .find(|o| o.name() == "preemptive")
        .expect("suite has preemptive oracle");
    let mut worst = 0u64;
    for thread in 0..THREADS {
        let request = oracle
            .message_bound(FlowId(2 * thread), REQUEST_FLITS)
            .expect("request bound");
        let response = oracle
            .message_bound(FlowId(2 * thread + 1), RESPONSE_FLITS)
            .expect("response bound");
        worst = worst.max(request.saturating_add(response));
    }
    worst
}

/// Narrow from-scratch comparator: rebuild only the preemptive oracle (the
/// single analysis the objective queries).  Reported alongside the suite
/// rate so the cheaper comparator is visible too.
fn scratch_preemptive_round_trip(
    mesh: &Mesh,
    config: &NocConfig,
    pairs: &[(NodeId, NodeId)],
    buffers: &BufferConfig,
) -> u64 {
    let flows = FlowSet::from_pairs(mesh, pairs.iter().copied()).expect("scratch flows");
    let mut oracle = PreemptiveOracle::new(&flows, config, buffers, VcConfig::single());
    let mut worst = 0u64;
    for thread in 0..THREADS {
        let request = oracle
            .message_bound(FlowId(2 * thread), REQUEST_FLITS)
            .expect("request bound");
        let response = oracle
            .message_bound(FlowId(2 * thread + 1), RESPONSE_FLITS)
            .expect("response bound");
        worst = worst.max(request.saturating_add(response));
    }
    worst
}

/// Peak resident set size in kilobytes, from `/proc/self/status` (`VmHWM`).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Absolute form of `path` for failure hints: a hint quoting a CWD-relative
/// path is useless once CI has changed directories, so resolve it eagerly
/// (falling back to `cwd/path` when the file does not exist yet).
fn absolute(path: &str) -> String {
    std::fs::canonicalize(path)
        .ok()
        .or_else(|| std::env::current_dir().ok().map(|cwd| cwd.join(path)))
        .map_or_else(|| path.to_owned(), |p| p.display().to_string())
}

/// Extracts a numeric field from the flat JSON this binary writes.
fn json_number(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let start = json.find(&key)? + key.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Prints `problem` and the usage line to stderr and exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!(
        "{problem}; usage: expt-dse [--candidates N] [--seed S] [--restarts R] [--spot K] \
         [--bench] [--scratch-sample M] [--out PATH] [--baseline PATH]"
    );
    std::process::exit(2);
}

/// The numeric value of `flag`, or a usage error.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} takes a number, not {value:?}")))
}

/// The numeric value of `flag`, which must be at least 1, or a usage error.
fn positive<T: std::str::FromStr + Default + PartialOrd>(flag: &str, value: String) -> T {
    let n: T = number(flag, value);
    if n <= T::default() {
        usage_error(&format!("{flag} must be at least 1"));
    }
    n
}

fn main() {
    let mut candidates: u64 = 1_000_000;
    let mut seed: u64 = 7;
    let mut restarts: usize = 4;
    let mut spot: usize = 5;
    let mut bench = false;
    let mut scratch_sample: u64 = 200;
    let mut out = String::from("BENCH_dse.json");
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--candidates" => candidates = number(&flag, value()),
            "--seed" => seed = number(&flag, value()),
            "--restarts" => restarts = positive(&flag, value()),
            "--spot" => spot = number(&flag, value()),
            "--bench" => bench = true,
            "--scratch-sample" => scratch_sample = positive(&flag, value()),
            "--out" => out = value(),
            "--baseline" => baseline = Some(value()),
            unknown => usage_error(&format!("unknown argument {unknown}")),
        }
    }

    let mesh = Mesh::square(SIDE).expect("platform mesh");
    let config = NocConfig::regular(4);
    let banks = bank_coords();
    let placements =
        Placement::paper_set(&mesh, Coord::from_row_col(0, 0)).expect("paper placements");

    let bank_list = banks
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "dse: {SIDE}x{SIDE} {} mesh, banks at {bank_list}, {THREADS} threads \
         (nearest bank), request {REQUEST_FLITS}f / response {RESPONSE_FLITS}f",
        config.label()
    );
    println!(
        "dse: objectives (round-trip preemptive WCTT, total buffer flits); \
         {candidates} candidates over {restarts} restart(s), seed {seed}"
    );

    let mut archive: Vec<ParetoPoint> = Vec::new();
    let mut evaluated = 0u64;
    let mut accepted = 0u64;
    let started = Instant::now();
    let mut final_engine: Option<IncrementalAnalysis> = None;
    for restart in 0..restarts {
        let placement = &placements[restart % placements.len()];
        let cores = sanitize_placement(&banks, &tile_quadrants(placement.cores()));
        let weights = WEIGHTS[restart % WEIGHTS.len()];
        let mut climber = Climber::new(&mesh, &config, &banks, &cores, weights);
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        println!(
            "dse: restart {restart}: seeded from placement {} with weights \
             (wctt x{}, cost x{})",
            placement.name(),
            weights.0,
            weights.1
        );
        let budget = candidates / restarts as u64
            + u64::from(restart < (candidates % restarts as u64) as usize);
        let mut steps = 0u64;
        while steps < budget {
            let Some(step) = climber.propose(&mesh, &mut rng) else {
                continue;
            };
            let (wctt, cost, kept) = climber.step(&step);
            steps += 1;
            evaluated += 1;
            accepted += u64::from(kept);
            archive_insert(
                &mut archive,
                ParetoPoint {
                    wctt,
                    cost,
                    pairs: climber.engine.flows().pairs(),
                    buffers: climber.engine.buffers().clone(),
                },
            );
        }
        final_engine = Some(climber.engine);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let candidates_per_sec = evaluated as f64 / elapsed.max(1e-9);
    println!("dse: exploration took {elapsed:.3}s ({candidates_per_sec:.0} candidates/sec)");
    println!(
        "dse: {evaluated} candidates evaluated, {accepted} accepted, \
         {} non-dominated",
        archive.len()
    );

    archive.sort_by_key(|p| (p.wctt, p.cost));
    println!("pareto front (round-trip WCTT x total buffer flits):");
    for point in &archive {
        println!("  wctt {:>6}  cost {:>5}", point.wctt, point.cost);
    }

    // Spot-verify the front in the simulator — the acceptance bar is zero
    // dominance violations.
    let checks = spot.min(archive.len());
    let mut violations = 0usize;
    for point in archive.iter().take(checks) {
        let (bad, worst) = spot_verify(&config, point);
        violations += bad;
        println!(
            "spot-check: wctt {:>6} cost {:>5} -> observed max {worst}, {bad} violations",
            point.wctt, point.cost
        );
    }
    println!("spot-check: {checks} candidates verified, {violations} violations");

    let mut engine = final_engine.expect("at least one restart ran");
    let comparisons = differential_sweep(&mut engine);
    println!(
        "differential: incremental bounds bit-identical to from-scratch oracles \
         ({comparisons} comparisons)"
    );

    if violations > 0 {
        eprintln!("dse: spot checks found {violations} dominance violations");
        std::process::exit(1);
    }

    if !bench {
        return;
    }

    // From-scratch comparators replay the start of restart 0's walk — same
    // proposal stream, same accept decisions (the bounds are bit-identical)
    // — through the engine-free mirror, so the timed loop contains exactly
    // what a non-incremental explorer would run per candidate.
    let cores = sanitize_placement(&banks, &tile_quadrants(placements[0].cores()));
    let seed_wctt = {
        let mut seed_climber = Climber::new(&mesh, &config, &banks, &cores, WEIGHTS[0]);
        round_trip_wctt(&mut seed_climber.engine)
    };

    let mut mirror = Mirror::new(&mesh, &config, &banks, &cores, WEIGHTS[0], seed_wctt);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let suite_started = Instant::now();
    let mut done = 0u64;
    while done < scratch_sample {
        let Some(step) = propose_step(
            &mesh,
            &mirror.placement,
            &mirror.blocked,
            &mirror.buffers,
            &mut rng,
        ) else {
            continue;
        };
        mirror.step(&mesh, &step, |pairs, buffers| {
            scratch_suite_round_trip(&mesh, &config, pairs, buffers)
        });
        done += 1;
    }
    let suite_elapsed = suite_started.elapsed().as_secs_f64();
    let scratch_suite_per_sec = done as f64 / suite_elapsed.max(1e-9);

    let mut mirror = Mirror::new(&mesh, &config, &banks, &cores, WEIGHTS[0], seed_wctt);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let preemptive_started = Instant::now();
    let mut done = 0u64;
    while done < scratch_sample {
        let Some(step) = propose_step(
            &mesh,
            &mirror.placement,
            &mirror.blocked,
            &mirror.buffers,
            &mut rng,
        ) else {
            continue;
        };
        mirror.step(&mesh, &step, |pairs, buffers| {
            scratch_preemptive_round_trip(&mesh, &config, pairs, buffers)
        });
        done += 1;
    }
    let preemptive_elapsed = preemptive_started.elapsed().as_secs_f64();
    let scratch_preemptive_per_sec = done as f64 / preemptive_elapsed.max(1e-9);

    let speedup = candidates_per_sec / scratch_suite_per_sec.max(1e-9);
    let speedup_preemptive = candidates_per_sec / scratch_preemptive_per_sec.max(1e-9);
    println!(
        "bench: scratch suite rebuild took {suite_elapsed:.3}s \
         ({scratch_suite_per_sec:.0} candidates/sec) -> speedup {speedup:.1}x"
    );
    println!(
        "bench: scratch preemptive-only rebuild took {preemptive_elapsed:.3}s \
         ({scratch_preemptive_per_sec:.0} candidates/sec) -> speedup {speedup_preemptive:.1}x"
    );

    let rss = peak_rss_kb();
    let json = format!(
        "{{\n  \"candidates\": {evaluated},\n  \"seed\": {seed},\n  \"restarts\": {restarts},\n  \
         \"elapsed_seconds\": {elapsed:.3},\n  \"candidates_per_sec\": {candidates_per_sec:.0},\n  \
         \"scratch_suite_candidates_per_sec\": {scratch_suite_per_sec:.0},\n  \
         \"scratch_preemptive_candidates_per_sec\": {scratch_preemptive_per_sec:.0},\n  \
         \"speedup\": {speedup:.1},\n  \"speedup_vs_preemptive_only\": {speedup_preemptive:.1},\n  \
         \"pareto_points\": {},\n  \"spot_checks\": {checks},\n  \
         \"spot_violations\": {violations},\n  \"peak_rss_kb\": {rss}\n}}\n",
        archive.len()
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "bench: {evaluated} candidates at {candidates_per_sec:.0}/sec, speedup {speedup:.1}x, \
         peak RSS {rss} kB -> {out}"
    );

    if speedup < 10.0 {
        eprintln!(
            "bench: incremental speedup {speedup:.1}x below the 10x floor \
             (this run's bench JSON: {})",
            absolute(&out)
        );
        std::process::exit(1);
    }
    if let Some(path) = baseline {
        let reference = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let reference_rate = json_number(&reference, "candidates_per_sec")
            .unwrap_or_else(|| panic!("baseline {path} lacks candidates_per_sec"));
        let floor = 0.8 * reference_rate;
        println!(
            "bench: baseline {reference_rate:.0} candidates/sec (floor {floor:.0}) from {path}"
        );
        if candidates_per_sec < floor {
            eprintln!(
                "bench: throughput regressed >20%: {candidates_per_sec:.0} < {floor:.0} \
                 candidates/sec (baseline {reference_rate:.0})\n\
                 bench: this run's bench JSON: {}\n\
                 bench: committed baseline:    {}\n\
                 bench: a legitimate hardware-class change means copying the bench JSON \
                 over the baseline; output-shape changes are accepted via \
                 ./scripts/regen-golden.sh, never by editing baselines",
                absolute(&out),
                absolute(&path)
            );
            std::process::exit(1);
        }
    }
}
