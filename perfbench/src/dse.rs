//! The `dse-incremental` workload: a seeded hill-climb of the same shape as
//! `expt-dse`, served entirely by `IncrementalAnalysis`.
//!
//! Platform: the 16×16 round-robin mesh with four memory banks at the
//! quadrant centres and 64 threads (a paper placement tiled into each 8×8
//! quadrant), request/response flows between every thread and its nearest
//! bank.  The climb restarts every `CHUNK` candidates from the next paper
//! placement (P0, P1, P2, P3, P0, ...) with a fresh engine and its own
//! seeded proposal stream, as `expt-dse` restarts do, so every run covers
//! all four platforms in many independent walks.  One operation is one
//! candidate: propose a step (70% a thread move, two
//! `MoveFlow` mutations; 30% one `SetBufferDepth`), apply it, read the
//! preemptive round-trip objective over all 128 flows, and revert the step
//! if it does not improve the scalarized score.  The simulator is not
//! involved.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wnoc_conformance::fleet::fnv1a;
use wnoc_core::analysis::oracle::oracle_suite_with_vcs;
use wnoc_core::analysis::{Analysis, IncrementalAnalysis, Mutation};
use wnoc_core::flow::FlowSet;
use wnoc_core::port::Port;
use wnoc_core::vc::VcConfig;
use wnoc_core::{BufferConfig, Coord, FlowId, Mesh, NocConfig, NodeId};
use wnoc_workloads::Placement;

use crate::pins;
use crate::report::{median_s, LatencySample, RunResult, SetupTimer};
use crate::trace::Tracer;

const SIDE: u16 = 16;
const THREADS: usize = 64;
const REQUEST_FLITS: u32 = 1;
const RESPONSE_FLITS: u32 = 4;
const DEPTH_CHOICES: [u32; 4] = [1, 2, 4, 8];
/// Scalarization weights of (round-trip WCTT, total buffer flits).
const WEIGHTS: (u128, u128) = (4, 1);
/// Candidates per restart.
const CHUNK: u64 = 5_000;
/// Candidates in the checked prefix, the first restart from each placement:
/// their final states are pinned and the traced run replays them.
const CHECK_OPS: u64 = 4 * CHUNK;
/// Candidates of the checked prefix compared bit for bit against a
/// from-scratch oracle suite.
const SCRATCH_CHECKS: usize = 8;
/// Times the first four restarts are built during a run (all four take about
/// half a millisecond); `setup_s` is the median.
const SETUP_REPEATS: u32 = 51;

/// One proposed step, with what is needed to revert it.
enum Step {
    Move {
        thread: usize,
        from: Coord,
        to: Coord,
    },
    Depth {
        node: NodeId,
        port: Port,
        from: u32,
        to: u32,
    },
}

/// The hill-climbing state.
struct Climber {
    mesh: Mesh,
    engine: IncrementalAnalysis,
    banks: Vec<Coord>,
    placement: Vec<Coord>,
    /// Nodes a move may not target: occupied cores and the banks.
    blocked: HashSet<Coord>,
    rng: ChaCha8Rng,
    /// Objectives of the current (last accepted) design.
    wctt: u64,
    cost: u64,
    score: u128,
    /// Time `IncrementalAnalysis::new` took.
    build: Duration,
    /// Work done so far.
    mutations: u64,
    queries: u64,
    accepted: u64,
}

impl Climber {
    /// Set-up of restart `restart`: the platform seeded from paper placement
    /// `restart % 4`, the engine over it, and the seed design's objective
    /// (which fills the engine's term cache).  The proposal stream is drawn
    /// from `seed` and `restart`.
    fn new(seed: u64, restart: u64) -> Self {
        let mesh = Mesh::square(SIDE).expect("16x16 mesh");
        let config = NocConfig::regular(4);
        let near = SIDE / 4;
        let far = SIDE - 1 - SIDE / 4;
        let banks = vec![
            Coord::from_row_col(near, near),
            Coord::from_row_col(near, far),
            Coord::from_row_col(far, near),
            Coord::from_row_col(far, far),
        ];
        let placements =
            Placement::paper_set(&mesh, Coord::from_row_col(0, 0)).expect("paper placements");
        let placement = &placements[(restart % placements.len() as u64) as usize];
        let placement = tile_quadrants(&banks, placement.cores());
        let pairs: Vec<(NodeId, NodeId)> = placement
            .iter()
            .flat_map(|&core| {
                let core_id = mesh.node_id(core).expect("core on mesh");
                let bank_id = mesh
                    .node_id(nearest_bank(&banks, core))
                    .expect("bank on mesh");
                [(core_id, bank_id), (bank_id, core_id)]
            })
            .collect();
        let flows = FlowSet::from_pairs(&mesh, pairs).expect("placement flows");
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let build_started = Instant::now();
        let engine = IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single())
            .expect("valid seed design");
        let build = build_started.elapsed();
        let cost =
            u64::from(config.input_buffer_flits) * (mesh.router_count() * Port::COUNT) as u64;
        let mut blocked: HashSet<Coord> = placement.iter().copied().collect();
        blocked.extend(banks.iter().copied());
        let mut climber = Self {
            mesh,
            engine,
            banks,
            placement,
            blocked,
            rng: ChaCha8Rng::seed_from_u64(seed ^ restart.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            wctt: 0,
            cost,
            score: 0,
            build,
            mutations: 0,
            queries: 0,
            accepted: 0,
        };
        climber.wctt = climber.objective();
        climber.score = score(climber.wctt, cost);
        climber
    }

    /// Proposes a step: 70% thread moves, 30% depth changes.
    fn propose(&mut self) -> Step {
        loop {
            if self.rng.gen_range(0u32..10) < 7 {
                let thread = self.rng.gen_range(0..THREADS);
                let to = Coord::new(self.rng.gen_range(0..SIDE), self.rng.gen_range(0..SIDE));
                if !self.blocked.contains(&to) {
                    return Step::Move {
                        thread,
                        from: self.placement[thread],
                        to,
                    };
                }
            } else {
                let node = NodeId(self.rng.gen_range(0..self.mesh.router_count()));
                let port = Port::ALL[self.rng.gen_range(0..Port::ALL.len())];
                let to = DEPTH_CHOICES[self.rng.gen_range(0..DEPTH_CHOICES.len())];
                return Step::Depth {
                    node,
                    port,
                    from: self.engine.buffers().depth(node, port),
                    to,
                };
            }
        }
    }

    /// Applies `step` (or, with `revert`, undoes it) through the engine.
    fn apply(&mut self, step: &Step, revert: bool) {
        match *step {
            Step::Move { thread, from, to } => {
                let core = if revert { from } else { to };
                let core_id = self.mesh.node_id(core).expect("core on mesh");
                let bank_id = self
                    .mesh
                    .node_id(nearest_bank(&self.banks, core))
                    .expect("bank on mesh");
                for (id, src, dst) in [
                    (2 * thread, core_id, bank_id),
                    (2 * thread + 1, bank_id, core_id),
                ] {
                    self.engine
                        .apply(&Mutation::MoveFlow {
                            id: FlowId(id),
                            src,
                            dst,
                        })
                        .expect("legal move");
                }
                self.mutations += 2;
                self.blocked.remove(&self.placement[thread]);
                self.blocked.insert(core);
                self.placement[thread] = core;
            }
            Step::Depth {
                node,
                port,
                from,
                to,
            } => {
                let (old, new) = if revert { (to, from) } else { (from, to) };
                self.engine
                    .apply(&Mutation::SetBufferDepth {
                        node,
                        port,
                        depth: new,
                    })
                    .expect("legal depth");
                self.mutations += 1;
                self.cost = self.cost - u64::from(old) + u64::from(new);
            }
        }
    }

    /// The worst per-thread round trip (request + response preemptive
    /// message bound) of the engine's current design.
    fn objective(&mut self) -> u64 {
        let mut worst = 0u64;
        for thread in 0..THREADS {
            let request = self
                .engine
                .message_bound(Analysis::Preemptive, FlowId(2 * thread), REQUEST_FLITS)
                .expect("request bound");
            let response = self
                .engine
                .message_bound(Analysis::Preemptive, FlowId(2 * thread + 1), RESPONSE_FLITS)
                .expect("response bound");
            worst = worst.max(request.saturating_add(response));
        }
        self.queries += 2 * THREADS as u64;
        worst
    }

    /// Keeps the candidate if it does not worsen the score.
    fn decide(&mut self, wctt: u64) -> bool {
        let candidate = score(wctt, self.cost);
        let accept = candidate <= self.score;
        if accept {
            self.score = candidate;
            self.wctt = wctt;
            self.accepted += 1;
        }
        accept
    }

    /// One untraced candidate.
    fn candidate(&mut self) {
        let step = self.propose();
        self.apply(&step, false);
        let wctt = self.objective();
        if !self.decide(wctt) {
            self.apply(&step, true);
        }
    }

    /// Compares every bound the engine serves, for every flow and both
    /// message sizes, with a freshly built `oracle_suite_with_vcs`.
    fn matches_scratch(&mut self) -> bool {
        let flows = self.engine.flows().clone();
        let config = *self.engine.config();
        let buffers = self.engine.buffers().clone();
        let Ok(mut suite) =
            oracle_suite_with_vcs(&flows, &config, self.mesh, &buffers, self.engine.vcs())
        else {
            return false;
        };
        suite.iter_mut().all(|oracle| {
            let Some(analysis) = Analysis::from_name(oracle.name()) else {
                return false;
            };
            (0..flows.len()).all(|index| {
                let id = FlowId(index);
                [REQUEST_FLITS, RESPONSE_FLITS].into_iter().all(|size| {
                    self.engine.packet_bound(analysis, id, size) == oracle.packet_bound(id, size)
                        && self.engine.message_bound(analysis, id, size)
                            == oracle.message_bound(id, size)
                })
            })
        })
    }
}

fn score(wctt: u64, cost: u64) -> u128 {
    WEIGHTS.0 * u128::from(wctt) + WEIGHTS.1 * u128::from(cost)
}

/// The bank nearest to `core` by Manhattan distance, lowest index on ties.
fn nearest_bank(banks: &[Coord], core: Coord) -> Coord {
    *banks
        .iter()
        .min_by_key(|b| u32::from(b.x.abs_diff(core.x)) + u32::from(b.y.abs_diff(core.y)))
        .expect("at least one bank")
}

/// Tiles a placement drawn on the top-left 8×8 block into all four
/// quadrants, moving any core that lands on a bank to the nearest free node
/// (by distance, then row-major order).
fn tile_quadrants(banks: &[Coord], cores: &[Coord]) -> Vec<Coord> {
    let half = SIDE / 2;
    let tiled: Vec<Coord> = [(0, 0), (half, 0), (0, half), (half, half)]
        .iter()
        .flat_map(|&(dx, dy)| cores.iter().map(move |c| Coord::new(c.x + dx, c.y + dy)))
        .collect();
    let mut taken: HashSet<Coord> = tiled.iter().copied().chain(banks.iter().copied()).collect();
    tiled
        .into_iter()
        .map(|core| {
            if !banks.contains(&core) {
                return core;
            }
            let free = (0..SIDE)
                .flat_map(|row| (0..SIDE).map(move |col| Coord::from_row_col(row, col)))
                .filter(|c| !taken.contains(c))
                .min_by_key(|c| u32::from(c.x.abs_diff(core.x)) + u32::from(c.y.abs_diff(core.y)))
                .expect("a free node exists");
            taken.insert(free);
            free
        })
        .collect()
}

/// Set-up: the first four restarts, one per placement.
fn first_restarts(seed: u64) -> Vec<Climber> {
    (0..4).map(|restart| Climber::new(seed, restart)).collect()
}

/// The restart that runs candidate `op`.
fn restart_of(op: u64) -> usize {
    (op / CHUNK) as usize
}

/// The candidates of the checked prefix compared against a from-scratch
/// suite, drawn from the seed.
fn scratch_check_points(seed: u64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_C0DE);
    let mut points: Vec<u64> = (0..SCRATCH_CHECKS)
        .map(|_| rng.gen_range(0..CHECK_OPS))
        .collect();
    points.sort_unstable();
    points
}

/// The first four restarts' final states.
fn prefix_state(first: &[Climber]) -> Vec<(u64, u64, u64)> {
    first.iter().map(|c| (c.wctt, c.cost, c.accepted)).collect()
}

/// Checks the first four restarts' final states against the pin.
fn check_prefix_state(result: &mut RunResult, first: &[Climber], seed: u64) {
    let state = prefix_state(first);
    let digest = fnv1a(format!("{state:?}").as_bytes());
    let accepted: u64 = state.iter().map(|s| s.2).sum();
    result.notes.push(format!(
        "checked prefix: {CHECK_OPS} candidates, {accepted} accepted, \
         (wctt, cost, accepted) per restart {state:?}, digest {digest:016x}"
    ));
    let pin = pins::dse(seed);
    if pin.is_none() {
        result.notes.push(format!(
            "no pinned outputs for seed {seed}; the restarts are checked against scratch \
             oracles only"
        ));
    }
    result.check_pin("restart state digest", digest, pin.map(|p| p.digest));
    result.check_pin("accepted candidates", accepted, pin.map(|p| p.accepted));
}

/// Compares `climber`, which just ran candidate `op`, with from-scratch
/// oracles if `op` is a check point.  Returns the time the comparison took.
fn scratch_check(
    result: &mut RunResult,
    climber: &mut Climber,
    checks: &[u64],
    op: u64,
) -> Duration {
    let started = Instant::now();
    for _ in checks.iter().filter(|&&c| c == op) {
        let ok = climber.matches_scratch();
        result.check(&format!("candidate {op} matches from-scratch oracles"), ok);
    }
    started.elapsed()
}

/// The untraced run: candidates back to back for `budget` (and at least the
/// checked prefix).  Building later restarts, the repeated set-ups and the
/// scratch comparisons are timed out of the run.
pub fn measure(seed: u64, budget: Duration) -> RunResult {
    let mut setups = SetupTimer::new(SETUP_REPEATS, budget);
    let mut first = setups.time(|| first_restarts(seed));
    let checks = scratch_check_points(seed);
    let mut result = RunResult::default();
    let mut latencies = LatencySample::new();
    let mut later: Option<Climber> = None;
    // (mutations, accepted) of the finished later restarts.
    let mut finished = (0u64, 0u64);
    let mut excluded = Duration::ZERO;
    let started = Instant::now();
    let mut op = 0u64;
    loop {
        let measured = started.elapsed() - excluded;
        if op >= CHECK_OPS && measured >= budget {
            break;
        }
        if setups.due(measured) {
            let setup_started = Instant::now();
            setups.time(|| black_box(first_restarts(seed)));
            excluded += setup_started.elapsed();
        }
        let restart = restart_of(op);
        if restart >= first.len() && op.is_multiple_of(CHUNK) {
            let build_started = Instant::now();
            if let Some(done) = later.replace(Climber::new(seed, restart as u64)) {
                finished.0 += done.mutations;
                finished.1 += done.accepted;
            }
            excluded += build_started.elapsed();
        }
        let climber = match first.get_mut(restart) {
            Some(climber) => climber,
            None => later.as_mut().expect("a later restart is built"),
        };
        let op_started = Instant::now();
        climber.candidate();
        latencies.record(op_started.elapsed());
        if op < CHECK_OPS {
            excluded += scratch_check(&mut result, climber, &checks, op);
            if op + 1 == CHECK_OPS {
                check_prefix_state(&mut result, &first, seed);
            }
        }
        op += 1;
    }
    let elapsed = (started.elapsed() - excluded).as_secs_f64();
    while !setups.done() {
        setups.time(|| black_box(first_restarts(seed)));
    }
    result.attempted = op;
    let (mutations, accepted) = first
        .iter()
        .chain(&later)
        .fold(finished, |(m, a), c| (m + c.mutations, a + c.accepted));
    result.notes.push(format!(
        "dse-incremental: {op} candidates in {elapsed:.3} s, {mutations} mutations, \
         {accepted} accepted"
    ));
    result.end_to_end(
        op as f64 / elapsed,
        mutations as f64 / elapsed,
        latencies,
        setups.median_s(),
    );
    result
}

/// The traced run: the checked prefix with one span tree per candidate
/// (apply → query → revert), then once more untraced, the reference time of
/// `trace.overhead_ratio` (second, so that warm-up is charged to the traced
/// pass).
pub fn trace(seed: u64) -> RunResult {
    let mut result = RunResult::default();
    let mut tracer = Tracer::new();
    let builds: Vec<Duration> = (0..SETUP_REPEATS)
        .map(|_| first_restarts(seed).iter().map(|c| c.build).sum())
        .collect();
    let mut first = first_restarts(seed);
    let checks = scratch_check_points(seed);
    let mut excluded = Duration::ZERO;
    let started = Instant::now();
    for op in 0..CHECK_OPS {
        let climber = &mut first[restart_of(op)];
        let root = tracer.open(op, None, "candidate");
        let step = climber.propose();
        tracer.span(op, Some(root), "incremental.apply", || {
            climber.apply(&step, false)
        });
        let (wctt, _) = tracer.span(op, Some(root), "incremental.query", || climber.objective());
        if !climber.decide(wctt) {
            tracer.span(op, Some(root), "incremental.revert", || {
                climber.apply(&step, true)
            });
        }
        tracer.close(root);
        excluded += scratch_check(&mut result, climber, &checks, op);
    }
    let traced = started.elapsed() - excluded;

    let mut untraced_first = first_restarts(seed);
    let started = Instant::now();
    for op in 0..CHECK_OPS {
        untraced_first[restart_of(op)].candidate();
    }
    let untraced = started.elapsed();
    result.attempted = CHECK_OPS;
    result.check(
        "the untraced restarts end where the traced restarts ended",
        prefix_state(&first) == prefix_state(&untraced_first),
    );
    check_prefix_state(&mut result, &first, seed);

    let sum = |f: fn(&Climber) -> u64| first.iter().map(f).sum::<u64>() as f64;
    result.per_layer(&[
        ("incremental.build_s", median_s(&builds)),
        (
            "incremental.apply_s",
            tracer.total_s("incremental.apply") + tracer.total_s("incremental.revert"),
        ),
        ("incremental.mutations", sum(|c| c.mutations)),
        ("incremental.query_s", tracer.total_s("incremental.query")),
        ("incremental.queries", sum(|c| c.queries)),
        (
            "incremental.accept_ratio",
            sum(|c| c.accepted) / CHECK_OPS as f64,
        ),
        (
            "trace.overhead_ratio",
            traced.as_secs_f64() / untraced.as_secs_f64(),
        ),
    ]);
    result.notes.push(format!(
        "dse-incremental: traced {CHECK_OPS} candidates in {:.3} s, untraced {:.3} s",
        traced.as_secs_f64(),
        untraced.as_secs_f64()
    ));
    result.spans = tracer.into_spans();
    result
}
