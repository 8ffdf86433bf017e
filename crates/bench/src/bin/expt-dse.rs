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
//!          [--bench] [--scratch-sample M] [--out PATH]
//! ```
//!
//! Defaults: 1 000 000 candidates, seed 7, 4 restarts, 5 spot checks.  The
//! default mode prints a deterministic report (golden-snapshotted as
//! `tests/golden/expt-dse.txt`; timing lines carry `took` so the snapshot
//! filters them).  `--bench` additionally replays the first `M` candidates
//! of restart 0 through two engine-free climbers — one rebuilds the flow set
//! and the full oracle suite per candidate (the per-scenario work of the
//! conformance campaigns), the other only the preemptive oracle the
//! objective queries — and writes `BENCH_dse.json`.  The run fails below
//! 10× speedup over the suite rebuild, a ratio measured on one host and so
//! portable across hosts, and when either replay's `(wctt, cost, kept)`
//! sequence leaves the engine walk's.

use std::collections::HashSet;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wnoc_bench::Args;
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

/// The worst per-thread round trip, request plus response message bound,
/// given each flow's message bound: the one objective every evaluator
/// answers.
fn round_trip(mut message_bound: impl FnMut(FlowId, u32) -> Option<u64>) -> u64 {
    (0..THREADS)
        .map(|thread| {
            let request =
                message_bound(FlowId(2 * thread), REQUEST_FLITS).expect("request flow bound");
            let response =
                message_bound(FlowId(2 * thread + 1), RESPONSE_FLITS).expect("response flow bound");
            request.saturating_add(response)
        })
        .max()
        .unwrap_or(0)
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

/// How a climber holds its candidate design and evaluates it.
trait Evaluator {
    /// The candidate's buffer plan.
    fn buffers(&self) -> &BufferConfig;
    /// Re-pairs `thread`'s request and response flows as `core` ↔ `bank`.
    fn move_thread(&mut self, thread: usize, core: NodeId, bank: NodeId);
    /// Sets the depth of `(node, port)` to `depth` flits.
    fn set_depth(&mut self, node: NodeId, port: Port, depth: u32);
    /// The candidate's worst per-thread round-trip WCTT.
    fn round_trip_wctt(&mut self) -> u64;
}

/// The explorer proper: every candidate is a mutation of the engine, and
/// only the terms it invalidates are recomputed.
impl Evaluator for IncrementalAnalysis {
    fn buffers(&self) -> &BufferConfig {
        IncrementalAnalysis::buffers(self)
    }

    fn move_thread(&mut self, thread: usize, core: NodeId, bank: NodeId) {
        self.apply(&Mutation::MoveFlow {
            id: FlowId(2 * thread),
            src: core,
            dst: bank,
        })
        .expect("legal request move");
        self.apply(&Mutation::MoveFlow {
            id: FlowId(2 * thread + 1),
            src: bank,
            dst: core,
        })
        .expect("legal response move");
    }

    fn set_depth(&mut self, node: NodeId, port: Port, depth: u32) {
        self.apply(&Mutation::SetBufferDepth { node, port, depth })
            .expect("legal depth");
    }

    fn round_trip_wctt(&mut self) -> u64 {
        round_trip(|id, size| self.message_bound(Analysis::Preemptive, id, size))
    }
}

/// What a from-scratch evaluation rebuilds for every candidate.
#[derive(Clone, Copy)]
enum Rebuild {
    /// The whole oracle suite: the per-scenario work of the conformance
    /// campaigns, and the from-scratch equivalent of the all-analysis state
    /// the engine keeps consistent at every candidate.
    Suite,
    /// Only the preemptive oracle, the single analysis the objective
    /// queries: the cheaper comparator, reported for scale.
    PreemptiveOnly,
}

impl Rebuild {
    fn name(self) -> &'static str {
        match self {
            Rebuild::Suite => "suite",
            Rebuild::PreemptiveOnly => "preemptive-only",
        }
    }
}

/// An engine-free evaluator: the candidate is plain endpoint pairs and a
/// buffer plan, and every evaluation rebuilds the flow set and `rebuild`'s
/// analysis state, as a non-incremental explorer would.
struct Scratch {
    mesh: Mesh,
    config: NocConfig,
    pairs: Vec<(NodeId, NodeId)>,
    buffers: BufferConfig,
    rebuild: Rebuild,
}

impl Evaluator for Scratch {
    fn buffers(&self) -> &BufferConfig {
        &self.buffers
    }

    fn move_thread(&mut self, thread: usize, core: NodeId, bank: NodeId) {
        self.pairs[2 * thread] = (core, bank);
        self.pairs[2 * thread + 1] = (bank, core);
    }

    fn set_depth(&mut self, node: NodeId, port: Port, depth: u32) {
        self.buffers = self
            .buffers
            .with_buffer_depth(&self.mesh, node, port, depth);
    }

    fn round_trip_wctt(&mut self) -> u64 {
        let flows =
            FlowSet::from_pairs(&self.mesh, self.pairs.iter().copied()).expect("scratch flows");
        let vcs = VcConfig::single();
        let mut oracle: Box<dyn WcttBoundModel> = match self.rebuild {
            Rebuild::Suite => {
                oracle_suite_with_vcs(&flows, &self.config, self.mesh, &self.buffers, vcs)
                    .expect("scratch suite")
                    .into_iter()
                    .find(|o| o.name() == "preemptive")
                    .expect("suite has preemptive oracle")
            }
            Rebuild::PreemptiveOnly => Box::new(PreemptiveOracle::new(
                &flows,
                &self.config,
                &self.buffers,
                vcs,
            )),
        };
        round_trip(|id, size| oracle.message_bound(id, size))
    }
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

impl Step {
    /// The step that undoes this one.
    fn inverse(&self) -> Step {
        match *self {
            Step::Move { thread, from, to } => Step::Move {
                thread,
                from: to,
                to: from,
            },
            Step::Depth {
                node,
                port,
                from,
                to,
            } => Step::Depth {
                node,
                port,
                from: to,
                to: from,
            },
        }
    }
}

/// The proposal stream of restart `restart`.  The from-scratch replays draw
/// restart 0's, so they walk the engine's first candidates.
fn restart_rng(seed: u64, restart: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The hill-climbing state of one walk, over any [`Evaluator`]: the bounds
/// are bit-identical across evaluators, so from one seed every evaluator
/// walks the same candidates and makes the same accept decisions.
struct Climber<E> {
    design: E,
    mesh: Mesh,
    placement: Vec<Coord>,
    /// Nodes a move may not target: occupied cores plus the bank nodes.
    blocked: HashSet<Coord>,
    banks: Vec<Coord>,
    /// Running total buffer cost (kept by delta; rebuilding it per candidate
    /// would dwarf the incremental evaluation).
    cost: u64,
    /// Current scalarized score under the walk's weights.
    score: u128,
    weights: (u128, u128),
}

impl<E: Evaluator> Climber<E> {
    /// A climber seeded on `cores` with every buffer at the configured
    /// depth; `build` makes the evaluator from the seed's flow endpoints and
    /// buffer plan.
    fn new(
        mesh: Mesh,
        config: &NocConfig,
        banks: &[Coord],
        cores: &[Coord],
        weights: (u128, u128),
        build: impl FnOnce(Vec<(NodeId, NodeId)>, BufferConfig) -> E,
    ) -> Self {
        let mut design = build(
            placement_pairs(&mesh, banks, cores),
            BufferConfig::uniform(config.input_buffer_flits),
        );
        let cost = u64::from(config.input_buffer_flits)
            * mesh.router_count() as u64
            * Port::ALL.len() as u64;
        let wctt = design.round_trip_wctt();
        let mut blocked: HashSet<Coord> = cores.iter().copied().collect();
        blocked.extend(banks.iter().copied());
        Self {
            design,
            mesh,
            placement: cores.to_vec(),
            blocked,
            banks: banks.to_vec(),
            cost,
            score: weights.0 * u128::from(wctt) + weights.1 * u128::from(cost),
            weights,
        }
    }

    /// Proposes one step from `rng`: 70% placement moves, 30% depth
    /// changes.  `None` when 32 draws found no free target node (practically
    /// never on the 16×16 platform).
    fn propose(&self, rng: &mut ChaCha8Rng) -> Option<Step> {
        if rng.gen_range(0u32..10) < 7 {
            let thread = rng.gen_range(0usize..THREADS);
            for _ in 0..32 {
                let to = Coord::new(rng.gen_range(0..SIDE), rng.gen_range(0..SIDE));
                if !self.blocked.contains(&to) {
                    return Some(Step::Move {
                        thread,
                        from: self.placement[thread],
                        to,
                    });
                }
            }
            None
        } else {
            let node = NodeId(rng.gen_range(0usize..self.mesh.router_count()));
            let port = Port::ALL[rng.gen_range(0usize..Port::ALL.len())];
            let to = DEPTH_CHOICES[rng.gen_range(0usize..DEPTH_CHOICES.len())];
            Some(Step::Depth {
                node,
                port,
                from: self.design.buffers().depth(node, port),
                to,
            })
        }
    }

    /// Applies `step` to the design, the placement and the running cost.
    fn apply(&mut self, step: &Step) {
        match *step {
            Step::Move { thread, to, .. } => {
                let bank = nearest_bank(&self.banks, to);
                let core_id = self.mesh.node_id(to).expect("core on mesh");
                let bank_id = self.mesh.node_id(bank).expect("bank on mesh");
                self.design.move_thread(thread, core_id, bank_id);
                self.blocked.remove(&self.placement[thread]);
                self.blocked.insert(to);
                self.placement[thread] = to;
            }
            Step::Depth {
                node,
                port,
                from,
                to,
            } => {
                self.design.set_depth(node, port, to);
                self.cost = self.cost - u64::from(from) + u64::from(to);
            }
        }
    }

    /// Applies `step`, evaluates the candidate, and keeps or reverts it by
    /// hill-climbing on the scalarized score.  Returns the candidate's
    /// objectives and whether it was kept (rejected candidates still feed
    /// the Pareto archive).
    fn step(&mut self, step: &Step) -> (u64, u64, bool) {
        self.apply(step);
        let wctt = self.design.round_trip_wctt();
        let cost = self.cost;
        let score = self.weights.0 * u128::from(wctt) + self.weights.1 * u128::from(cost);
        let accept = score <= self.score;
        if accept {
            self.score = score;
        } else {
            self.apply(&step.inverse());
        }
        (wctt, cost, accept)
    }

    /// Proposes and evaluates `budget` candidates drawn from `rng`, handing
    /// the evaluator and each candidate's `(wctt, cost, kept)` to `visit`.
    fn walk(
        &mut self,
        rng: &mut ChaCha8Rng,
        budget: u64,
        mut visit: impl FnMut(&E, (u64, u64, bool)),
    ) {
        let mut steps = 0u64;
        while steps < budget {
            let Some(step) = self.propose(rng) else {
                continue;
            };
            let candidate = self.step(&step);
            steps += 1;
            visit(&self.design, candidate);
        }
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

fn main() {
    let mut candidates: u64 = 1_000_000;
    let mut seed: u64 = 7;
    let mut restarts: usize = 4;
    let mut spot: usize = 5;
    let mut bench = false;
    let mut scratch_sample: u64 = 200;
    let mut out = String::from("BENCH_dse.json");
    let mut args = Args::from_env(
        "expt-dse [--candidates N] [--seed S] [--restarts R] [--spot K] \
         [--bench] [--scratch-sample M] [--out PATH]",
    );
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--candidates" => candidates = args.number(&flag),
            "--seed" => seed = args.number(&flag),
            "--restarts" => restarts = args.positive(&flag),
            "--spot" => spot = args.number(&flag),
            "--bench" => bench = true,
            "--scratch-sample" => scratch_sample = args.positive(&flag),
            "--out" => out = args.value(&flag),
            unknown => args.usage_error(&format!("unknown argument {unknown}")),
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
    // Restart 0's first `scratch_sample` candidates, which the from-scratch
    // replays must walk too.
    let mut engine_walk: Vec<(u64, u64, bool)> = Vec::new();
    let started = Instant::now();
    let mut final_engine: Option<IncrementalAnalysis> = None;
    for restart in 0..restarts {
        let placement = &placements[restart % placements.len()];
        let cores = sanitize_placement(&banks, &tile_quadrants(placement.cores()));
        let weights = WEIGHTS[restart % WEIGHTS.len()];
        let mut climber = Climber::new(mesh, &config, &banks, &cores, weights, |pairs, buffers| {
            let flows = FlowSet::from_pairs(&mesh, pairs).expect("placement flows");
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single())
                .expect("valid seed design")
        });
        println!(
            "dse: restart {restart}: seeded from placement {} with weights \
             (wctt x{}, cost x{})",
            placement.name(),
            weights.0,
            weights.1
        );
        let budget = candidates / restarts as u64
            + u64::from(restart < (candidates % restarts as u64) as usize);
        climber.walk(
            &mut restart_rng(seed, restart),
            budget,
            |engine, (wctt, cost, kept)| {
                evaluated += 1;
                accepted += u64::from(kept);
                if restart == 0 && (engine_walk.len() as u64) < scratch_sample {
                    engine_walk.push((wctt, cost, kept));
                }
                archive_insert(
                    &mut archive,
                    ParetoPoint {
                        wctt,
                        cost,
                        pairs: engine.flows().pairs(),
                        buffers: engine.buffers().clone(),
                    },
                );
            },
        );
        final_engine = Some(climber.design);
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

    // The from-scratch replays walk the start of restart 0 (same seed, same
    // proposal stream, same accept decisions), so the timed loop contains
    // exactly what a non-incremental explorer would run per candidate.
    let cores = sanitize_placement(&banks, &tile_quadrants(placements[0].cores()));
    let mut scratch_rates = Vec::with_capacity(2);
    let mut walk_diverged = false;
    for rebuild in [Rebuild::Suite, Rebuild::PreemptiveOnly] {
        let mut climber = Climber::new(
            mesh,
            &config,
            &banks,
            &cores,
            WEIGHTS[0],
            |pairs, buffers| Scratch {
                mesh,
                config,
                pairs,
                buffers,
                rebuild,
            },
        );
        let mut walk = Vec::with_capacity(engine_walk.len());
        let replay_started = Instant::now();
        climber.walk(&mut restart_rng(seed, 0), scratch_sample, |_, candidate| {
            walk.push(candidate);
        });
        let replay_elapsed = replay_started.elapsed().as_secs_f64();
        let rate = scratch_sample as f64 / replay_elapsed.max(1e-9);
        println!(
            "bench: scratch {} rebuild took {replay_elapsed:.3}s \
             ({rate:.0} candidates/sec) -> speedup {:.1}x",
            rebuild.name(),
            candidates_per_sec / rate.max(1e-9)
        );
        if let Some(index) = walk.iter().zip(&engine_walk).position(|(a, b)| a != b) {
            eprintln!(
                "bench: the scratch {} replay left the engine walk at candidate {index}: \
                 (wctt, cost, kept) {:?} != {:?}",
                rebuild.name(),
                walk[index],
                engine_walk[index]
            );
            walk_diverged = true;
        }
        scratch_rates.push(rate);
    }
    let (scratch_suite_per_sec, scratch_preemptive_per_sec) = (scratch_rates[0], scratch_rates[1]);
    let speedup = candidates_per_sec / scratch_suite_per_sec.max(1e-9);
    let speedup_preemptive = candidates_per_sec / scratch_preemptive_per_sec.max(1e-9);
    if !walk_diverged {
        println!(
            "bench: both scratch replays walk the engine's first {} candidates",
            engine_walk.len()
        );
    }

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
    }
    if speedup < 10.0 || walk_diverged {
        std::process::exit(1);
    }
}
