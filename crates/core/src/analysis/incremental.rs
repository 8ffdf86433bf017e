//! Mutation-driven incremental WCTT analysis: the term cache behind the
//! design-space-exploration driver (`expt-dse`).
//!
//! The analytic stack recomputes every bound from scratch per scenario, but a
//! DSE loop mutates one design knob at a time — move one flow's endpoints,
//! change one buffer depth, reassign VCs — and re-reads the bounds of every
//! flow.  [`IncrementalAnalysis`] keeps one model instance per analysis alive
//! across mutations and caches, per flow, the expensive route-dependent terms
//! each analysis needs ([`FlowTerms`]); every exported bound is then composed
//! from the cached terms by calling the *same functions* the from-scratch
//! oracles call (the formulas live once, in the model modules), which is
//! what makes the bounds bit-identical — the differential proptest
//! (`incremental_equivalence`) pins this for arbitrary mutation sequences.
//!
//! # Invalidation
//!
//! Terms are keyed by flow and carry two read sets, maintained as reverse
//! indexes:
//!
//! * **contention keys** — the `(router, output)` column of every hop of the
//!   flow's route.  Every read any analysis performs against the flow counts
//!   happens inside these columns, so a flow's terms survive a mutation whose
//!   change events miss its key set;
//! * **depth keys** — the `(node, input port)` buffer each hop drains into
//!   (buffer-aware analysis only), so a single-depth mutation invalidates
//!   only the flows whose routes actually cross that buffer.
//!
//! Change events come from the models themselves: under round robin,
//! [`RegularWcttModel::apply_route_delta`] reports the columns whose pair
//! *support* flipped plus the memoised drain terms it dropped (the regular
//! recursion reads counts only through support masks, so magnitude-only
//! changes invalidate nothing); under WaW,
//! [`crate::weights::WeightTable::apply_route_delta`] moves the output count
//! of every hop of the route, so the engine invalidates the route's own
//! columns (the weighted bounds read magnitudes).
//! Global knobs stay out of the per-flow cache entirely: the preemptive depth
//! envelope factor is updated per depth mutation from a histogram of the
//! buffer plan's depths and applied at query time, and a VC reassignment
//! under multiple VCs rebuilds the preemptive interference state wholesale
//! (its interference sets can all change).
//!
//! # Cost of a mutation
//!
//! Every mutation writes in place and touches only what it changes: a
//! `SetBufferDepth` writes one table entry and moves one histogram count; a
//! `MoveFlow` re-traces one route into its own hop buffer and walks the
//! invalidation closure of its old and new hops.  Change events, read sets
//! and routes live in buffers the engine owns and reuses, so once they have
//! grown to their high-water mark a round-robin mutation allocates nothing.

use crate::analysis::graph_buffer_aware::burst_bound;
use crate::analysis::oracle::WcttBoundModel;
use crate::analysis::preemptive::{self, PreemptiveOracle};
use crate::analysis::regular::{self, own_size_bound, RegularWcttModel, RouteDelta};
use crate::analysis::slot;
use crate::analysis::weighted::{pipelined, WeightedWcttModel};
use crate::analysis::{BufferAwareWcttModel, GraphBufferAwareWcttModel};
use crate::arbitration::ArbitrationPolicy;
use crate::arrival::ArrivalCurve;
use crate::buffers::BufferConfig;
use crate::config::NocConfig;
use crate::error::{Error, Result};
use crate::fault::{reroute_flows, FaultKind, FaultSet, TreeRouting};
use crate::flow::{FlowId, FlowSet};
use crate::geometry::{Coord, NodeId};
use crate::packetization::regular_sizes;
use crate::port::Port;
use crate::topology::Mesh;
use crate::vc::VcConfig;
use crate::weights::WeightTable;

/// One of the analyses the engine serves, named after the corresponding
/// conformance oracle ([`WcttBoundModel::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Analysis {
    /// Chained-blocking bound of the regular round-robin mesh (`"regular"`).
    Regular,
    /// Upper-bound-delay composition through the active packetization
    /// (`"ubd"`).
    Ubd,
    /// Priority-preemptive repair with the depth envelope (`"preemptive"`).
    Preemptive,
    /// Single-port bottleneck envelope (`"slot"`).
    Slot,
    /// Paper-flavour weighted bound (`"weighted"`).
    Weighted,
    /// Backpressure-aware weighted bound (`"weighted-bp"`).
    WeightedBp,
    /// Buffer-aware weighted bound (`"buffer-aware"`).
    BufferAware,
    /// Graph-based buffer-aware bound under the engine's arrival curve
    /// (`"graph-ba"`).
    GraphBufferAware,
}

impl Analysis {
    /// The conformance-oracle name of the analysis.
    pub fn name(&self) -> &'static str {
        match self {
            Analysis::Regular => "regular",
            Analysis::Ubd => "ubd",
            Analysis::Preemptive => "preemptive",
            Analysis::Slot => "slot",
            Analysis::Weighted => "weighted",
            Analysis::WeightedBp => "weighted-bp",
            Analysis::BufferAware => "buffer-aware",
            Analysis::GraphBufferAware => "graph-ba",
        }
    }

    /// The analysis matching a conformance-oracle name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "regular" => Analysis::Regular,
            "ubd" => Analysis::Ubd,
            "preemptive" => Analysis::Preemptive,
            "slot" => Analysis::Slot,
            "weighted" => Analysis::Weighted,
            "weighted-bp" => Analysis::WeightedBp,
            "buffer-aware" => Analysis::BufferAware,
            "graph-ba" => Analysis::GraphBufferAware,
            _ => return None,
        })
    }
}

/// A single design mutation the engine applies incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Re-targets flow `id` to the `(src, dst)` endpoints (a placement swap
    /// is two of these).
    MoveFlow {
        /// The flow to re-target.
        id: FlowId,
        /// New source node.
        src: NodeId,
        /// New destination node.
        dst: NodeId,
    },
    /// Appends a new flow (takes the next dense [`FlowId`]).
    AddFlow {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// Removes the most recently added flow.
    RemoveLastFlow,
    /// Sets the input-buffer depth of one `(node, port)` to `depth` flits.
    SetBufferDepth {
        /// The router whose input buffer changes.
        node: NodeId,
        /// The input port whose buffer changes.
        port: Port,
        /// New depth in flits (≥ 1).
        depth: u32,
    },
    /// Replaces the platform's VC configuration.
    SetVcs(VcConfig),
    /// Replaces the arrival contract the graph-based bursty analysis covers
    /// (a global knob, like the preemptive depth envelope: no per-flow terms
    /// are invalidated because the burst term composes at query time).
    SetArrivalCurve(ArrivalCurve),
    /// Permanently fails the directed link leaving `from` towards
    /// `direction`.  The engine reroutes every surviving flow over the
    /// degraded spanning forest ([`crate::fault::TreeRouting`]), drops
    /// severed pairs, and rebuilds every model from scratch on the rerouted
    /// flow set: a fault changes *every* route, so there are no unchanged
    /// terms to salvage, and a full rebuild is what makes the degraded
    /// bounds trivially bit-identical to freshly built degraded oracles.
    FailLink {
        /// Upstream router of the failed directed link.
        from: Coord,
        /// Direction the failed link points in.
        direction: crate::port::Direction,
    },
    /// Permanently fails the whole router at `at`; rerouting semantics as
    /// for [`Mutation::FailLink`].
    FailRouter {
        /// Coordinate of the failed router.
        at: Coord,
    },
}

/// The cached route-dependent terms of one flow.  The queries of
/// [`IncrementalAnalysis`] compose every bound from these through the model
/// modules' own composition functions.
#[derive(Debug, Clone, Copy, Default)]
struct FlowTerms {
    /// `RegularWcttModel::route_wctt(route, 1)` — the own-size-independent
    /// prefix of the chained-blocking bound (round robin only).
    regular_base: u64,
    /// `WeightedWcttModel::packet_wctt(route)` (WaW only).
    paper_packet: u64,
    /// `WeightedWcttModel::backpressured_packet_wctt(route)` (WaW only).
    bp_packet: u64,
    /// `BufferAwareWcttModel::packet_wctt(route)` (WaW only), the base the
    /// graph-based burst term extends.
    ba_packet: u64,
    /// `WeightedWcttModel::bottleneck_flows(route)` (WaW only).
    bottleneck: u32,
    /// Maximum per-hop contender count of the slot envelope (the envelope is
    /// monotone in the contender count at fixed sizes, so the per-route
    /// maximum is the only hop that matters).
    slot_contenders: u32,
}

/// The multiset of a buffer plan's depths, one count per `(node, port)`
/// table entry, as `(depth, entries)` pairs sorted by depth: the minimum and
/// maximum the depth envelope reads are the first and last pairs, and a
/// single-depth mutation moves one count (a binary search over the k
/// distinct depths, plus a shift of at most k pairs when a depth appears or
/// vanishes).
#[derive(Debug)]
struct DepthHistogram(Vec<(u32, usize)>);

impl DepthHistogram {
    /// The histogram of `buffers` over `mesh`'s routers: a single pair for a
    /// uniform plan, one count per table entry otherwise.
    fn new(mesh: &Mesh, buffers: &BufferConfig) -> Self {
        let entries = mesh.router_count() * Port::COUNT;
        if let BufferConfig::Uniform { depth } = *buffers {
            return Self(vec![(depth, entries)]);
        }
        let mut histogram = Self(Vec::new());
        for node in (0..mesh.router_count()).map(NodeId) {
            for port in Port::ALL {
                histogram.insert(buffers.depth(node, port));
            }
        }
        histogram
    }

    fn insert(&mut self, depth: u32) {
        match self.0.binary_search_by_key(&depth, |&(d, _)| d) {
            Ok(at) => self.0[at].1 += 1,
            Err(at) => self.0.insert(at, (depth, 1)),
        }
    }

    fn remove(&mut self, depth: u32) {
        let at = self
            .0
            .binary_search_by_key(&depth, |&(d, _)| d)
            .expect("removed depth is in the plan");
        self.0[at].1 -= 1;
        if self.0[at].1 == 0 {
            self.0.remove(at);
        }
    }

    /// The preemptive depth envelope factor of the plan.
    fn factor(&self, config: &NocConfig) -> u64 {
        let (Some(&(min, _)), Some(&(max, _))) = (self.0.first(), self.0.last()) else {
            unreachable!("every mesh has at least one input buffer")
        };
        preemptive::depth_factor(config, min, max)
    }
}

/// Incremental engine over every analysis applicable to one arbitration
/// policy.  Build it once for a seed design, [`IncrementalAnalysis::apply`]
/// mutations, and query bounds that are bit-identical to freshly-constructed
/// oracles over the mutated design.
///
/// # Examples
///
/// ```
/// use wnoc_core::analysis::incremental::{Analysis, IncrementalAnalysis, Mutation};
/// use wnoc_core::flow::FlowSet;
/// use wnoc_core::geometry::{Coord, NodeId};
/// use wnoc_core::{BufferConfig, FlowId, Mesh, NocConfig, VcConfig};
///
/// let mesh = Mesh::square(4)?;
/// let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0))?;
/// let config = NocConfig::regular(4);
/// let buffers = BufferConfig::uniform(config.input_buffer_flits);
/// let mut engine =
///     IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single())?;
/// let before = engine.message_bound(Analysis::Preemptive, FlowId(0), 4).unwrap();
/// // Move flow 0 to new endpoints: only terms sharing ports with its old or
/// // new route are recomputed.
/// engine.apply(&Mutation::MoveFlow { id: FlowId(0), src: NodeId(5), dst: NodeId(0) })?;
/// let after = engine.message_bound(Analysis::Preemptive, FlowId(0), 4).unwrap();
/// assert_ne!(before, after);
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug)]
pub struct IncrementalAnalysis {
    mesh: Mesh,
    config: NocConfig,
    flows: FlowSet,
    buffers: BufferConfig,
    vcs: VcConfig,
    /// Round robin: the dependency-tracked chained-blocking model, shared by
    /// the regular, UBD, preemptive and slot compositions (their from-scratch
    /// counterparts all build this exact model or read the same supports).
    regular: Option<RegularWcttModel>,
    /// WaW: the weighted model over the delta-maintained weight table; its
    /// per-output flow counts also feed the slot contender terms.
    weighted: Option<WeightedWcttModel>,
    /// WaW: the graph-based bursty extension over its own delta-maintained
    /// buffer-aware base model, which also serves the buffer-aware terms.
    /// The burst term is composed at query time (it depends on the queried
    /// message size), so the arrival-curve knob never touches the per-flow
    /// term cache.
    graph: Option<GraphBufferAwareWcttModel>,
    /// Histogram of `buffers`' depths, the source of `depth_factor`.
    depths: DepthHistogram,
    /// The preemptive depth envelope factor of the current buffer plan,
    /// updated per depth mutation and applied at query time.
    depth_factor: u64,
    /// Multi-VC preemptive state (priorities, interference sets, response
    /// iterations), rebuilt wholesale when flows or VCs change: a VC
    /// reassignment can change every interference set.  `None`/unused while
    /// the platform runs a single VC, where preemption delay is zero by
    /// construction and the preemptive bound composes from `regular`.
    preemptive: Option<PreemptiveOracle>,
    preemptive_dirty: bool,
    /// Accumulated permanent failures.  While non-empty, the engine's flow
    /// set is the tree-rerouted degraded set and flow-shape mutations (which
    /// route with XY) are rejected.
    faults: FaultSet,
    cache: Vec<Option<FlowTerms>>,
    /// Per-flow contention read set: the dense column index (`node · 5 +
    /// output`) of every hop of the flow's route.
    flow_keys: Vec<Vec<u32>>,
    /// Reverse index of `flow_keys`: column index → flows whose terms read
    /// that column.  Dense by column so mutation-time invalidation never
    /// hashes.
    port_readers: Vec<Vec<u32>>,
    /// Per-flow buffer read set (WaW only: the buffer-aware terms): the
    /// dense buffer index (`node · 5 + input port`) of every buffer the
    /// flow's hops drain into.
    depth_keys: Vec<Vec<u32>>,
    /// Reverse index of `depth_keys`, dense by buffer like `port_readers`
    /// (empty under round robin, where no cached term reads a depth).
    depth_readers: Vec<Vec<u32>>,
    /// Scratch of [`IncrementalAnalysis::apply_route_events`]: the regular
    /// model's change events.
    delta: RouteDelta,
}

impl IncrementalAnalysis {
    /// Builds the engine for a seed design.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or `buffers` does
    /// not cover the mesh.
    pub fn new(
        flows: &FlowSet,
        config: &NocConfig,
        buffers: &BufferConfig,
        vcs: VcConfig,
    ) -> Result<Self> {
        config.validate()?;
        let mesh = *flows.mesh();
        buffers.validate(&mesh)?;
        let (regular, weighted, graph) = match config.arbitration {
            ArbitrationPolicy::RoundRobin => (
                Some(RegularWcttModel::new(
                    flows,
                    config.timing,
                    config.packetization.worst_case_contender_flits(),
                )),
                None,
                None,
            ),
            ArbitrationPolicy::Waw => {
                let slice = config.packetization.worst_case_contender_flits();
                let table = WeightTable::from_flow_set(flows);
                let base = BufferAwareWcttModel::new(
                    table.clone(),
                    config.timing,
                    slice,
                    mesh,
                    buffers.clone(),
                );
                (
                    None,
                    Some(WeightedWcttModel::new(table, config.timing, slice)),
                    // Seeded with the burst-free contract, under which the
                    // graph-based bound collapses to the buffer-aware one;
                    // `Mutation::SetArrivalCurve` swaps the contract in place.
                    Some(GraphBufferAwareWcttModel::new(
                        base,
                        ArrivalCurve::periodic(1),
                    )),
                )
            }
        };
        let n = flows.len();
        let columns = mesh.router_count() * Port::COUNT;
        let depths = DepthHistogram::new(&mesh, buffers);
        let buffer_count = if graph.is_some() { columns } else { 0 };
        let mut engine = Self {
            mesh,
            config: *config,
            flows: flows.clone(),
            buffers: buffers.clone(),
            vcs,
            regular,
            weighted,
            graph,
            depth_factor: depths.factor(config),
            depths,
            preemptive: None,
            preemptive_dirty: true,
            faults: FaultSet::empty(&mesh),
            cache: vec![None; n],
            flow_keys: vec![Vec::new(); n],
            port_readers: vec![Vec::new(); columns],
            depth_keys: vec![Vec::new(); n],
            depth_readers: vec![Vec::new(); buffer_count],
            delta: RouteDelta::default(),
        };
        for index in 0..n {
            engine.index_flow(index);
        }
        Ok(engine)
    }

    /// The engine's current (incrementally-maintained) flow set.
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// The engine's current buffer configuration.
    pub fn buffers(&self) -> &BufferConfig {
        &self.buffers
    }

    /// The engine's current VC configuration.
    pub fn vcs(&self) -> VcConfig {
        self.vcs
    }

    /// The platform configuration the engine was built for.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The arrival contract the graph-based bursty analysis currently covers
    /// (`None` under round robin, where the analysis is inapplicable).
    pub fn arrival_curve(&self) -> Option<ArrivalCurve> {
        self.graph.as_ref().map(GraphBufferAwareWcttModel::curve)
    }

    /// The analyses applicable to the engine's arbitration policy, in the
    /// order the conformance suite reports them at the default design point.
    pub fn analyses(&self) -> Vec<Analysis> {
        match self.config.arbitration {
            ArbitrationPolicy::RoundRobin => vec![
                Analysis::Regular,
                Analysis::Ubd,
                Analysis::Preemptive,
                Analysis::Slot,
            ],
            ArbitrationPolicy::Waw => vec![
                Analysis::WeightedBp,
                Analysis::Weighted,
                Analysis::BufferAware,
                Analysis::GraphBufferAware,
                Analysis::Ubd,
                Analysis::Slot,
            ],
        }
    }

    /// Applies one design mutation, updating the contention structures by
    /// delta and invalidating exactly the cached terms whose read sets the
    /// change events touch.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid endpoints, an out-of-range flow, an empty
    /// flow set (`RemoveLastFlow`), or an invalid depth.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<()> {
        if !self.faults.is_empty() {
            if let Mutation::MoveFlow { .. } | Mutation::AddFlow { .. } = mutation {
                return Err(Error::InvalidConfig {
                    reason: "flow-shape mutations route with XY and cannot follow a fault \
                             mutation; apply faults last or rebuild the engine"
                        .to_string(),
                });
            }
        }
        match *mutation {
            Mutation::MoveFlow { id, src, dst } => {
                self.flows.check_replacement(id, src, dst)?;
                self.unindex_flow(id.0);
                self.apply_route_events(id.0, false);
                self.flows
                    .replace_pair(id, src, dst)
                    .expect("endpoints validated above");
                self.apply_route_events(id.0, true);
                self.index_flow(id.0);
                self.cache[id.0] = None;
                self.preemptive_dirty = true;
            }
            Mutation::AddFlow { src, dst } => {
                let id = self.flows.push_pair(src, dst)?;
                self.cache.push(None);
                self.flow_keys.push(Vec::new());
                self.depth_keys.push(Vec::new());
                self.apply_route_events(id.0, true);
                self.index_flow(id.0);
                self.preemptive_dirty = true;
            }
            Mutation::RemoveLastFlow => {
                let index = self
                    .flows
                    .len()
                    .checked_sub(1)
                    .ok_or(Error::InvalidConfig {
                        reason: "cannot remove a flow from an empty set".to_string(),
                    })?;
                self.unindex_flow(index);
                self.apply_route_events(index, false);
                self.flows.pop();
                self.cache.pop();
                self.flow_keys.pop();
                self.depth_keys.pop();
                self.preemptive_dirty = true;
            }
            Mutation::SetBufferDepth { node, port, depth } => {
                if node.index() >= self.mesh.router_count() || depth == 0 {
                    return Err(Error::InvalidConfig {
                        reason: format!(
                            "cannot set buffer {node}/{port} of a {} mesh to depth {depth}",
                            self.mesh.dims()
                        ),
                    });
                }
                let old = self
                    .buffers
                    .set_buffer_depth(&self.mesh, node, port, depth)
                    .expect("node checked above");
                if old == depth {
                    return Ok(());
                }
                if let Some(model) = &mut self.graph {
                    model
                        .base_mut()
                        .buffers_mut()
                        .set_buffer_depth(&self.mesh, node, port, depth);
                }
                self.depths.remove(old);
                self.depths.insert(depth);
                self.depth_factor = self.depths.factor(&self.config);
                let readers = self.depth_readers.get(buffer_index(node, port));
                for &index in readers.into_iter().flatten() {
                    self.cache[index as usize] = None;
                }
                self.preemptive_dirty = true;
            }
            Mutation::SetVcs(vcs) => {
                self.vcs = vcs;
                self.preemptive_dirty = true;
            }
            Mutation::SetArrivalCurve(curve) => {
                // Applied at query time like the depth envelope factor: the
                // graph-based bounds never enter the per-flow term cache, so
                // nothing is invalidated.
                if let Some(model) = &mut self.graph {
                    model.set_curve(curve);
                }
            }
            Mutation::FailLink { from, direction } => {
                self.mesh.check(from)?;
                if self.mesh.neighbor(from, direction).is_none() {
                    return Err(Error::InvalidConfig {
                        reason: format!("no link {from}->{direction} in {} mesh", self.mesh.dims()),
                    });
                }
                self.faults.add(FaultKind::Link { from, direction });
                self.rebuild_degraded()?;
            }
            Mutation::FailRouter { at } => {
                self.mesh.check(at)?;
                self.faults.add(FaultKind::Router { at });
                self.rebuild_degraded()?;
            }
        }
        Ok(())
    }

    /// The accumulated permanent-failure state.
    pub fn fault_set(&self) -> &FaultSet {
        &self.faults
    }

    /// Reroutes the current pairs over the degraded spanning forest, drops
    /// severed pairs, and rebuilds every model from scratch on the rerouted
    /// flow set.  Deliberately non-incremental: rerouting changes every
    /// route, so a rebuild invalidates nothing that could have survived and
    /// is bit-identical to fresh degraded oracles by construction.
    fn rebuild_degraded(&mut self) -> Result<()> {
        let tree = TreeRouting::new(&self.faults);
        let reroute = reroute_flows(&self.flows, &tree)?;
        let curve = self.arrival_curve();
        let mut rebuilt =
            IncrementalAnalysis::new(&reroute.flows, &self.config, &self.buffers, self.vcs)?;
        if let Some(curve) = curve {
            rebuilt.apply(&Mutation::SetArrivalCurve(curve))?;
        }
        std::mem::swap(&mut rebuilt.faults, &mut self.faults);
        *self = rebuilt;
        Ok(())
    }

    /// Bound for a single wire packet of `own_flits` flits on flow `id` under
    /// `analysis` — bit-identical to the corresponding oracle's
    /// [`WcttBoundModel::packet_bound`] over the current design.  `None` for
    /// unknown flows or analyses inapplicable to the arbitration policy.
    pub fn packet_bound(&mut self, analysis: Analysis, id: FlowId, own_flits: u32) -> Option<u64> {
        if id.0 >= self.flows.len() || !self.serves(analysis) {
            return None;
        }
        match analysis {
            // The UBD oracle answers packet queries through its message
            // composition (a single wire packet is a one-packet message).
            Analysis::Ubd => return self.message_bound(Analysis::Ubd, id, own_flits),
            Analysis::Preemptive if !self.vcs.is_single() => {
                return self.ensure_preemptive().packet_bound(id, own_flits);
            }
            _ => {}
        }
        let terms = self.ensure_terms(id.0)?;
        Some(match analysis {
            Analysis::Regular => own_size_bound(terms.regular_base, own_flits),
            // Single VC: no higher-priority interferer, zero preemption.
            Analysis::Preemptive => preemptive::packet_bound(
                self.depth_factor,
                own_size_bound(terms.regular_base, own_flits),
                0,
            ),
            Analysis::Slot => slot::envelope(
                terms.slot_contenders,
                self.config.packetization.worst_case_contender_flits(),
                slot::packet_flits(self.config.packetization, own_flits),
            ),
            Analysis::Weighted => terms.paper_packet,
            Analysis::WeightedBp => terms.bp_packet,
            Analysis::BufferAware => terms.ba_packet,
            Analysis::GraphBufferAware => self.burst(id, terms.ba_packet, 1)?,
            Analysis::Ubd => unreachable!("answered above"),
        })
    }

    /// Bound for one whole `message_flits`-flit message on flow `id` under
    /// `analysis` — bit-identical to the corresponding oracle's
    /// [`WcttBoundModel::message_bound`] over the current design.
    pub fn message_bound(
        &mut self,
        analysis: Analysis,
        id: FlowId,
        message_flits: u32,
    ) -> Option<u64> {
        if id.0 >= self.flows.len() || !self.serves(analysis) {
            return None;
        }
        if analysis == Analysis::Preemptive && !self.vcs.is_single() {
            return self.ensure_preemptive().message_bound(id, message_flits);
        }
        let config = self.config;
        let terms = self.ensure_terms(id.0)?;
        // The regular and preemptive oracles split at their own (≥ 1)
        // maximum packet size regardless of the platform's packetization.
        let max_packet_flits = || {
            let model = self.regular.as_ref().expect("round robin keeps regular");
            model.contender_flits()
        };
        let slice_flits = || {
            let model = self.weighted.as_ref().expect("WaW keeps weighted");
            model.slice_flits()
        };
        let slices = || config.slices(message_flits);
        let pipeline =
            |per_packet| pipelined(per_packet, terms.bottleneck, slice_flits(), slices());
        Some(match analysis {
            Analysis::Regular => regular::packet_sum(
                terms.regular_base,
                regular_sizes(max_packet_flits(), message_flits),
            ),
            Analysis::Ubd => match config.arbitration {
                ArbitrationPolicy::RoundRobin => {
                    regular::packet_sum(terms.regular_base, config.wire_packets(message_flits))
                }
                ArbitrationPolicy::Waw => pipeline(terms.paper_packet),
            },
            Analysis::Preemptive => {
                let max = max_packet_flits();
                preemptive::train_bound(regular_sizes(max, message_flits), max, |size| {
                    Some(preemptive::packet_bound(
                        self.depth_factor,
                        own_size_bound(terms.regular_base, size),
                        0,
                    ))
                })?
            }
            Analysis::Slot => slot::envelope(
                terms.slot_contenders,
                config.packetization.worst_case_contender_flits(),
                config.wire_packets(message_flits).iter().sum(),
            ),
            Analysis::Weighted => pipeline(terms.paper_packet),
            Analysis::WeightedBp => pipeline(terms.bp_packet),
            Analysis::BufferAware => pipeline(terms.ba_packet),
            Analysis::GraphBufferAware => {
                let slices = slices();
                let base = pipelined(terms.ba_packet, terms.bottleneck, slice_flits(), slices);
                self.burst(id, base, slices)?
            }
        })
    }

    /// `true` if `analysis` applies to the engine's arbitration policy.
    fn serves(&self, analysis: Analysis) -> bool {
        match analysis {
            Analysis::Ubd | Analysis::Slot => true,
            Analysis::Regular | Analysis::Preemptive => self.regular.is_some(),
            Analysis::Weighted
            | Analysis::WeightedBp
            | Analysis::BufferAware
            | Analysis::GraphBufferAware => self.weighted.is_some(),
        }
    }

    /// The graph-based bound of flow `id` over its steady-state `base` bound
    /// for a `slices`-slice message.  The burst term depends on the curve
    /// and the message size, so it is composed here rather than cached.
    fn burst(&self, id: FlowId, base: u64, slices: u32) -> Option<u64> {
        let model = self.graph.as_ref()?;
        let route = self.flows.route(id)?;
        Some(burst_bound(base, model.curve(), || {
            model.service_slot(route, slices)
        }))
    }

    /// Registers flow `index`'s read sets in the reverse indexes.  The
    /// flow's key vectors are empty here (fresh, or cleared by
    /// [`IncrementalAnalysis::unindex_flow`]) and are refilled in place.
    fn index_flow(&mut self, index: usize) {
        let Self {
            mesh,
            flows,
            graph,
            flow_keys,
            port_readers,
            depth_keys,
            depth_readers,
            ..
        } = self;
        let route = flows.route(FlowId(index)).expect("indexed flow");
        let reader = index as u32;
        // A route visits each router once, so its columns are distinct.
        for hop in route.hops() {
            let column = column_index(mesh, hop.router, hop.output);
            flow_keys[index].push(column);
            port_readers[column as usize].push(reader);
        }
        if graph.is_some() {
            let keys = &mut depth_keys[index];
            for hop in route.hops() {
                let buffer = BufferConfig::hop_buffer(mesh, hop.router, hop.input, hop.output);
                if let Some((node, port)) = buffer {
                    let key = buffer_index(node, port) as u32;
                    if !keys.contains(&key) {
                        keys.push(key);
                        depth_readers[key as usize].push(reader);
                    }
                }
            }
        }
    }

    /// Removes flow `index`'s read sets from the reverse indexes, clearing
    /// its key vectors but keeping their capacity.
    fn unindex_flow(&mut self, index: usize) {
        let reader = index as u32;
        for (keys, readers) in [
            (&mut self.flow_keys[index], &mut self.port_readers),
            (&mut self.depth_keys[index], &mut self.depth_readers),
        ] {
            for &key in keys.iter() {
                let list = &mut readers[key as usize];
                if let Some(position) = list.iter().position(|&f| f == reader) {
                    list.swap_remove(position);
                }
            }
            keys.clear();
        }
    }

    /// Feeds flow `index`'s current route, as an add or a remove, through
    /// every delta-maintained structure and invalidates the cached terms of
    /// the flows whose read sets the resulting change events touch.
    fn apply_route_events(&mut self, index: usize, add: bool) {
        let Self {
            mesh,
            flows,
            regular,
            weighted,
            graph,
            cache,
            port_readers,
            delta,
            ..
        } = self;
        let route = flows.route(FlowId(index)).expect("indexed flow");
        let mut invalidate = |router: Coord, output: Port| {
            for &reader in &port_readers[column_index(mesh, router, output) as usize] {
                cache[reader as usize] = None;
            }
        };
        if let Some(model) = regular {
            model.apply_route_delta(route, add, delta);
            for &(router, output) in delta.flipped_columns.iter().chain(&delta.dropped_drains) {
                invalidate(router, output);
            }
        }
        if let Some(model) = weighted {
            // The weighted terms read flow counts by magnitude, and every
            // hop's output count moved: the route's own columns are stale.
            model.weights_mut().apply_route_delta(route, add);
            for hop in route.hops() {
                invalidate(hop.router, hop.output);
            }
        }
        if let Some(model) = graph {
            model.base_mut().weights_mut().apply_route_delta(route, add);
        }
    }

    /// The cached terms of flow `index`, recomputing them from the live
    /// models if a mutation invalidated them.
    fn ensure_terms(&mut self, index: usize) -> Option<FlowTerms> {
        if let Some(terms) = self.cache.get(index).copied().flatten() {
            return Some(terms);
        }
        let terms = {
            let Self {
                flows,
                regular,
                weighted,
                graph,
                config,
                ..
            } = self;
            let route = flows.route(FlowId(index))?;
            let mut terms = FlowTerms::default();
            if let Some(model) = regular {
                terms.regular_base = model.route_wctt(route, 1);
            }
            if let Some(model) = weighted {
                terms.paper_packet = model.packet_wctt(route);
                terms.bp_packet = model.backpressured_packet_wctt(route);
                terms.bottleneck = model.bottleneck_flows(route);
            }
            if let Some(model) = graph {
                terms.ba_packet = model.base().packet_wctt(route);
            }
            // The slot oracle's contention reads, served from the dense
            // structures the engine already maintains: the regular model's
            // pair supports under round robin, the weight table under WaW.
            let (regular, weighted) = (&*regular, &*weighted);
            terms.slot_contenders = slot::route_contenders(
                config.arbitration,
                route,
                |hop| {
                    let model = regular.as_ref().expect("round robin keeps regular");
                    model.contender_count(hop.router, hop.input, hop.output)
                },
                |hop| {
                    let model = weighted.as_ref().expect("WaW keeps weighted");
                    model.weights().output_flows(hop.router, hop.output)
                },
            );
            terms
        };
        self.cache[index] = Some(terms);
        Some(terms)
    }

    /// The multi-VC preemptive oracle, rebuilt if any mutation since the last
    /// query could have changed its interference state.
    fn ensure_preemptive(&mut self) -> &mut PreemptiveOracle {
        if self.preemptive_dirty || self.preemptive.is_none() {
            self.preemptive = Some(PreemptiveOracle::new(
                &self.flows,
                &self.config,
                &self.buffers,
                self.vcs,
            ));
            self.preemptive_dirty = false;
        }
        self.preemptive.as_mut().expect("just ensured")
    }
}

/// Dense index of a `(router, output)` contention column.
#[inline]
fn column_index(mesh: &Mesh, router: Coord, output: Port) -> u32 {
    let node = usize::from(router.y) * usize::from(mesh.width()) + usize::from(router.x);
    (node * Port::COUNT + output.index()) as u32
}

/// Dense index of a `(node, input port)` buffer.
#[inline]
fn buffer_index(node: NodeId, port: Port) -> usize {
    node.index() * Port::COUNT + port.index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::oracle::oracle_suite_with_vcs;
    use crate::analysis::preemptive::SATURATION_SENTINEL;
    use crate::geometry::Coord;
    use crate::vc::VcAssignment;

    fn check_against_suite(engine: &mut IncrementalAnalysis) {
        let flows = engine.flows().clone();
        let config = *engine.config();
        let mesh = *flows.mesh();
        let buffers = engine.buffers().clone();
        let vcs = engine.vcs();
        let mut suite = oracle_suite_with_vcs(&flows, &config, mesh, &buffers, vcs).unwrap();
        for oracle in &mut suite {
            let analysis = Analysis::from_name(oracle.name()).unwrap();
            for index in 0..flows.len() {
                let id = FlowId(index);
                for size in [1u32, 4, 9] {
                    assert_eq!(
                        engine.packet_bound(analysis, id, size),
                        oracle.packet_bound(id, size),
                        "packet {} {id} size {size}",
                        oracle.name()
                    );
                    assert_eq!(
                        engine.message_bound(analysis, id, size),
                        oracle.message_bound(id, size),
                        "message {} {id} size {size}",
                        oracle.name()
                    );
                }
            }
        }
    }

    fn setup(side: u16) -> (Mesh, FlowSet) {
        let mesh = Mesh::square(side).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        (mesh, flows)
    }

    #[test]
    fn seed_design_matches_suite_round_robin() {
        let config = NocConfig::regular(4);
        let (_mesh, flows) = setup(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        check_against_suite(&mut engine);
    }

    #[test]
    fn seed_design_matches_suite_waw() {
        let config = NocConfig::waw_wap();
        let (_mesh, flows) = setup(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        check_against_suite(&mut engine);
    }

    #[test]
    fn mutation_sequence_matches_suite() {
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let (mesh, flows) = setup(4);
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            let mut engine =
                IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
            let corner = mesh.node_id(Coord::from_row_col(3, 3)).unwrap();
            let memory = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
            let center = mesh.node_id(Coord::from_row_col(1, 2)).unwrap();
            let mutations = [
                Mutation::MoveFlow {
                    id: FlowId(0),
                    src: corner,
                    dst: center,
                },
                Mutation::SetBufferDepth {
                    node: memory,
                    port: Port::Local,
                    depth: 8,
                },
                Mutation::AddFlow {
                    src: center,
                    dst: memory,
                },
                Mutation::SetBufferDepth {
                    node: center,
                    port: Port::Mesh(crate::port::Direction::West),
                    depth: 1,
                },
                Mutation::RemoveLastFlow,
                Mutation::MoveFlow {
                    id: FlowId(0),
                    src: memory,
                    dst: corner,
                },
            ];
            for mutation in &mutations {
                engine.apply(mutation).unwrap();
                check_against_suite(&mut engine);
            }
        }
    }

    #[test]
    fn vc_mutations_match_suite_including_saturation() {
        let config = NocConfig::regular(4);
        let (_mesh, flows) = setup(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        // Two VCs over the all-to-one funnel: lower-priority flows share
        // links with saturated higher-priority ones, so preemptive bounds
        // saturate to the sentinel — the engine must reproduce that exactly.
        let vcs = VcConfig::new(2, VcAssignment::FlowIndex).unwrap();
        engine.apply(&Mutation::SetVcs(vcs)).unwrap();
        check_against_suite(&mut engine);
        let mut saturated = 0;
        for index in 0..engine.flows().len() {
            if engine.packet_bound(Analysis::Preemptive, FlowId(index), 4)
                == Some(SATURATION_SENTINEL)
            {
                saturated += 1;
            }
        }
        assert!(saturated > 0, "expected saturated preemptive bounds");
        // Back to a single VC: bounds return to the finite composition.
        engine.apply(&Mutation::SetVcs(VcConfig::single())).unwrap();
        check_against_suite(&mut engine);
    }

    #[test]
    fn arrival_curve_mutations_match_a_fresh_graph_oracle() {
        use crate::analysis::oracle::GraphBufferAwareOracle;
        let config = NocConfig::waw_wap();
        let (mesh, flows) = setup(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        // The seed contract carries no burst: graph-ba collapses onto the
        // buffer-aware bound before any arrival-curve mutation lands.
        for index in 0..engine.flows().len() {
            let id = FlowId(index);
            assert_eq!(
                engine.message_bound(Analysis::GraphBufferAware, id, 9),
                engine.message_bound(Analysis::BufferAware, id, 9),
            );
        }
        let memory = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
        let corner = mesh.node_id(Coord::from_row_col(3, 3)).unwrap();
        let mutations = [
            Mutation::SetArrivalCurve(ArrivalCurve::bursty(4, 2_000)),
            Mutation::MoveFlow {
                id: FlowId(0),
                src: corner,
                dst: memory,
            },
            Mutation::SetBufferDepth {
                node: memory,
                port: Port::Local,
                depth: 8,
            },
            Mutation::SetArrivalCurve(ArrivalCurve::bursty(7, 3_000).with_jitter(20)),
            Mutation::SetArrivalCurve(ArrivalCurve::periodic(500)),
        ];
        for mutation in &mutations {
            engine.apply(mutation).unwrap();
            let curve = engine.arrival_curve().unwrap();
            let mut oracle = GraphBufferAwareOracle::new(
                engine.flows(),
                &config,
                *engine.flows().mesh(),
                engine.buffers().clone(),
                curve,
            );
            for index in 0..engine.flows().len() {
                let id = FlowId(index);
                for size in [1u32, 4, 9] {
                    assert_eq!(
                        engine.packet_bound(Analysis::GraphBufferAware, id, size),
                        oracle.packet_bound(id, size),
                        "packet graph-ba {id} size {size} after {mutation:?}"
                    );
                    assert_eq!(
                        engine.message_bound(Analysis::GraphBufferAware, id, size),
                        oracle.message_bound(id, size),
                        "message graph-ba {id} size {size} after {mutation:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_mutations_match_fresh_degraded_suite() {
        use crate::port::Direction;
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let (mesh, flows) = setup(4);
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            let mut engine =
                IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
            let before = engine.flows().len();
            // Fail one directed link: every flow reroutes over the spanning
            // forest, nothing is severed (the mesh stays connected).
            engine
                .apply(&Mutation::FailLink {
                    from: Coord::from_row_col(0, 1),
                    direction: Direction::West,
                })
                .unwrap();
            assert_eq!(engine.flows().len(), before);
            check_against_suite(&mut engine);
            // Fail a router: the flow sourced there is severed and dropped.
            engine
                .apply(&Mutation::FailRouter {
                    at: Coord::from_row_col(3, 3),
                })
                .unwrap();
            assert_eq!(engine.flows().len(), before - 1);
            assert!(engine.fault_set().router_failed(Coord::from_row_col(3, 3)));
            check_against_suite(&mut engine);
            // Knob mutations still compose after faults...
            let memory = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
            engine
                .apply(&Mutation::SetBufferDepth {
                    node: memory,
                    port: Port::Local,
                    depth: 8,
                })
                .unwrap();
            check_against_suite(&mut engine);
            // ...but XY-routed flow-shape mutations are rejected.
            assert!(engine
                .apply(&Mutation::AddFlow {
                    src: memory,
                    dst: mesh.node_id(Coord::from_row_col(1, 1)).unwrap(),
                })
                .is_err());
            assert!(engine
                .apply(&Mutation::MoveFlow {
                    id: FlowId(0),
                    src: memory,
                    dst: mesh.node_id(Coord::from_row_col(1, 1)).unwrap(),
                })
                .is_err());
        }
    }

    #[test]
    fn fault_mutations_validate_hardware() {
        let config = NocConfig::regular(3);
        let (_mesh, flows) = setup(3);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        assert!(engine
            .apply(&Mutation::FailLink {
                from: Coord::new(2, 0),
                direction: crate::port::Direction::East,
            })
            .is_err());
        assert!(engine
            .apply(&Mutation::FailRouter {
                at: Coord::new(9, 9),
            })
            .is_err());
        // A failed validation leaves the engine untouched.
        check_against_suite(&mut engine);
    }

    #[test]
    fn depth_histogram_tracks_min_and_max_through_apply_and_revert() {
        use crate::port::Direction;
        let config = NocConfig::regular(4);
        let (mesh, flows) = setup(4);
        let mut engine = IncrementalAnalysis::new(
            &flows,
            &config,
            &BufferConfig::uniform(4),
            VcConfig::single(),
        )
        .unwrap();
        let interior = mesh.node_id(Coord::from_row_col(1, 2)).unwrap();
        let other = mesh.node_id(Coord::from_row_col(2, 1)).unwrap();
        let corner = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
        let edge = mesh.node_id(Coord::from_row_col(3, 3)).unwrap();
        let west = Port::Mesh(Direction::West);
        // `(node, port, depth)` steps from uniform 4 out to a 1..64 plan and
        // back.  The corner's north port and the edge router's east port face
        // off the mesh, so they exist only as table entries; the re-set of
        // an unchanged depth is a no-op; the later steps empty the 64 and 1
        // buckets one entry at a time.
        let steps = [
            (interior, west, 64),
            (corner, Port::Mesh(Direction::North), 1),
            (other, Port::Local, 64),
            (edge, Port::Mesh(Direction::East), 1),
            (other, Port::Local, 64),
            (interior, west, 4),
            (corner, Port::Mesh(Direction::North), 4),
            (other, Port::Local, 8),
            (other, Port::Local, 4),
            (edge, Port::Mesh(Direction::East), 4),
        ];
        for (node, port, depth) in steps {
            engine
                .apply(&Mutation::SetBufferDepth { node, port, depth })
                .unwrap();
            let buffers = engine.buffers().clone();
            let mut fresh =
                IncrementalAnalysis::new(engine.flows(), &config, &buffers, VcConfig::single())
                    .unwrap();
            assert_eq!(
                engine.depth_factor, fresh.depth_factor,
                "after {node}/{port}={depth}"
            );
            assert_eq!(
                engine.depth_factor,
                PreemptiveOracle::depth_envelope_factor(&config, &buffers)
            );
            for index in 0..flows.len() {
                let id = FlowId(index);
                for size in [1u32, 4, 9] {
                    assert_eq!(
                        engine.packet_bound(Analysis::Preemptive, id, size),
                        fresh.packet_bound(Analysis::Preemptive, id, size)
                    );
                    assert_eq!(
                        engine.message_bound(Analysis::Preemptive, id, size),
                        fresh.message_bound(Analysis::Preemptive, id, size)
                    );
                }
            }
        }
        // Back at the seed plan: one bucket, factor 1.
        assert!(engine.buffers().is_uniform_depth(4));
        assert_eq!(
            engine.depths.0,
            vec![(4, mesh.router_count() * Port::COUNT)]
        );
        assert_eq!(engine.depth_factor, 1);
    }

    #[test]
    fn invalid_buffer_depth_mutations_are_rejected_before_any_change() {
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let (mesh, flows) = setup(4);
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            let mut engine =
                IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
            let rejected = [
                (NodeId(999), 8),
                (NodeId(mesh.router_count()), 8),
                (NodeId(0), 0),
            ];
            for (node, depth) in rejected {
                let mutation = Mutation::SetBufferDepth {
                    node,
                    port: Port::Local,
                    depth,
                };
                assert!(
                    matches!(engine.apply(&mutation), Err(Error::InvalidConfig { .. })),
                    "{mutation:?} must be rejected"
                );
            }
            // Nothing moved: not even the uniform plan's representation.
            assert_eq!(engine.buffers(), &buffers);
            check_against_suite(&mut engine);
        }
    }

    #[test]
    fn unknown_flows_and_inapplicable_analyses_answer_none() {
        let config = NocConfig::regular(4);
        let (_mesh, flows) = setup(3);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        let out_of_range = FlowId(flows.len());
        assert_eq!(
            engine.packet_bound(Analysis::Regular, out_of_range, 4),
            None
        );
        assert_eq!(engine.message_bound(Analysis::Weighted, FlowId(0), 4), None);
        // The graph-based bursty analysis models the WaW design only.
        assert_eq!(
            engine.packet_bound(Analysis::GraphBufferAware, FlowId(0), 4),
            None
        );
        assert_eq!(engine.arrival_curve(), None);
    }
}
