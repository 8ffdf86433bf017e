//! Steady-state allocation audit of the incremental engine: once warm, a
//! design mutation and the bound queries that follow it must perform **zero
//! heap allocations**.
//!
//! A counting global allocator wraps the system allocator.  The platform is
//! the design-space walk's: a 16×16 mesh with four memory banks at the
//! quadrant centres and 64 threads, each with a request flow to its nearest
//! bank and a response flow back.  It is audited twice: under round robin,
//! reading the preemptive bound, and under WaW + WaP, reading the
//! backpressured weighted, buffer-aware and graph-based bounds.  One cycle
//! moves a thread away and back (two `MoveFlow` mutations each way) and
//! deepens one buffer and restores it, reading the bounds of all 128 flows
//! after every step.  The first cycle grows every engine-owned buffer (route
//! hop buffers, read sets, reverse indexes, change-event scratch, the
//! per-port depth table) to its high-water mark; the identical second cycle
//! must run on that memory alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wnoc_core::analysis::incremental::{Analysis, IncrementalAnalysis, Mutation};
use wnoc_core::flow::FlowSet;
use wnoc_core::port::{Direction, Port};
use wnoc_core::{BufferConfig, Coord, FlowId, Mesh, NocConfig, NodeId, VcConfig};

/// Counts allocator hits (alloc/realloc) while armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to the system allocator; the
// only addition is a relaxed counter bump with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const SIDE: u16 = 16;
const REQUEST_FLITS: u32 = 1;
const RESPONSE_FLITS: u32 = 4;

/// The four banks, at the quadrant centres.
fn banks() -> [Coord; 4] {
    let (near, far) = (SIDE / 4, SIDE - 1 - SIDE / 4);
    [
        Coord::from_row_col(near, near),
        Coord::from_row_col(near, far),
        Coord::from_row_col(far, near),
        Coord::from_row_col(far, far),
    ]
}

/// The bank nearest to `core` by Manhattan distance, lowest index on ties.
fn nearest_bank(mesh: &Mesh, core: Coord) -> NodeId {
    let bank = banks()
        .into_iter()
        .min_by_key(|bank| bank.manhattan_distance(core))
        .expect("four banks");
    mesh.node_id(bank).unwrap()
}

/// Moves thread `thread` (flows `2·thread` and `2·thread + 1`) to `core`.
fn move_thread(engine: &mut IncrementalAnalysis, mesh: &Mesh, thread: usize, core: Coord) {
    let core_id = mesh.node_id(core).unwrap();
    let bank_id = nearest_bank(mesh, core);
    for (id, src, dst) in [
        (2 * thread, core_id, bank_id),
        (2 * thread + 1, bank_id, core_id),
    ] {
        engine
            .apply(&Mutation::MoveFlow {
                id: FlowId(id),
                src,
                dst,
            })
            .unwrap();
    }
}

/// The worst thread round trip under `analysis`: 128 message-bound queries.
fn objective(engine: &mut IncrementalAnalysis, analysis: Analysis) -> u64 {
    (0..engine.flows().len() / 2)
        .map(|thread| {
            let request = engine
                .message_bound(analysis, FlowId(2 * thread), REQUEST_FLITS)
                .unwrap();
            let response = engine
                .message_bound(analysis, FlowId(2 * thread + 1), RESPONSE_FLITS)
                .unwrap();
            request.saturating_add(response)
        })
        .fold(0, u64::max)
}

/// The worst round trips under `analyses`, summed into one value a cycle
/// compares across steps.
fn objectives(engine: &mut IncrementalAnalysis, analyses: &[Analysis]) -> u64 {
    analyses
        .iter()
        .map(|&analysis| objective(engine, analysis))
        .fold(0, u64::saturating_add)
}

#[test]
fn warm_mutations_and_queries_do_not_allocate() {
    // Sanity-check the harness first, inside the same test: the counter and
    // the arm flag are process-global statics, so a second #[test] touching
    // them would race under libtest's parallel execution.  An intentional
    // allocation while armed must be counted, otherwise a broken counter
    // would vacuously pass the zero-allocation assertions below.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let probe: Vec<u64> = Vec::with_capacity(32);
    ARMED.store(false, Ordering::SeqCst);
    drop(probe);
    assert!(
        ALLOCATIONS.load(Ordering::SeqCst) > 0,
        "counting allocator failed to observe an ordinary allocation"
    );

    assert_warm_cycle_allocates_nothing(NocConfig::regular(4), &[Analysis::Preemptive]);
    assert_warm_cycle_allocates_nothing(
        NocConfig::waw_wap(),
        &[
            Analysis::WeightedBp,
            Analysis::BufferAware,
            Analysis::GraphBufferAware,
        ],
    );
}

/// Runs the move-and-deepen cycle twice on the design-space walk's platform
/// under `config`, reading `analyses` after every step, and asserts that the
/// second, warm cycle allocates nothing.
fn assert_warm_cycle_allocates_nothing(config: NocConfig, analyses: &[Analysis]) {
    let mesh = Mesh::square(SIDE).unwrap();
    // 64 threads on columns 1, 5, 9 and 13 of every row: no thread sits on
    // a bank (columns 4 and 11).
    let threads: Vec<Coord> = (0..SIDE)
        .flat_map(|row| [1, 5, 9, 13].map(|col| Coord::from_row_col(row, col)))
        .collect();
    assert_eq!(threads.len(), 64);
    let pairs = threads.iter().flat_map(|&core| {
        let core_id = mesh.node_id(core).unwrap();
        let bank_id = nearest_bank(&mesh, core);
        [(core_id, bank_id), (bank_id, core_id)]
    });
    let flows = FlowSet::from_pairs(&mesh, pairs).unwrap();
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    let mut engine =
        IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();

    // Thread 0 sits next to the top-left bank; the move sends it to the far
    // corner, which re-targets both of its flows to another bank.
    let (home, away) = (threads[0], Coord::from_row_col(SIDE - 1, SIDE - 1));
    let node = mesh.node_id(Coord::from_row_col(7, 7)).unwrap();
    let port = Port::Mesh(Direction::West);
    // The comparisons of the reads happen after disarming.
    let cycle = |engine: &mut IncrementalAnalysis| {
        let seed = objectives(engine, analyses);
        move_thread(engine, &mesh, 0, away);
        let moved = objectives(engine, analyses);
        move_thread(engine, &mesh, 0, home);
        let back = objectives(engine, analyses);
        engine
            .apply(&Mutation::SetBufferDepth {
                node,
                port,
                depth: 8,
            })
            .unwrap();
        let deepened = objectives(engine, analyses);
        engine
            .apply(&Mutation::SetBufferDepth {
                node,
                port,
                depth: config.input_buffer_flits,
            })
            .unwrap();
        let restored = objectives(engine, analyses);
        [seed, moved, back, deepened, restored]
    };

    let warm = cycle(&mut engine);
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let measured = cycle(&mut engine);
    ARMED.store(false, Ordering::SeqCst);

    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        allocations,
        0,
        "{}: a warm mutation cycle allocated {allocations} times",
        config.label()
    );
    // Reverting the moves and the depth restores every bound, and the
    // measured cycle did the same real work as the warm-up.
    let [seed, moved, back, _, restored] = measured;
    let label = config.label();
    assert_eq!(back, seed, "{label}: moving back changed a bound");
    assert_eq!(
        restored, seed,
        "{label}: restoring the depth changed a bound"
    );
    assert_ne!(moved, seed, "{label}: the move changed no bound");
    assert_eq!(measured, warm, "{label}");
}
