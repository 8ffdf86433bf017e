//! Analytical worst-case traversal time (WCTT) models.
//!
//! Two models are provided, matching the two designs compared throughout the
//! paper:
//!
//! * [`regular::RegularWcttModel`] — the baseline wormhole mesh with plain
//!   round-robin arbitration.  Because the analysis must be *time composable*
//!   (independent of the co-runners' actual load), every output port on the
//!   path is assumed to be contended by every input port that could legally
//!   request it, each contender carrying a maximum-size packet that can itself
//!   be blocked downstream (chained blocking).  The resulting bound grows
//!   multiplicatively with the path length, which is the poor scalability the
//!   paper demonstrates in Table II.
//! * [`weighted::WeightedWcttModel`] — the proposed WaW + WaP design.  Each
//!   flow is statically guaranteed a share of every output port it uses, so the
//!   per-hop waiting time is bounded by one arbitration round (the number of
//!   flows sharing the port times the minimum slice size) and the end-to-end
//!   bound grows linearly with the number of contending flows.
//!
//! [`slot`] contains the single-port worked example of Section III
//! (`3·L + S` vs `3·m + m`), [`table`] assembles whole-mesh WCTT tables
//! (Table II) and [`ubd`] computes the upper-bound delays used by the WCET
//! computation mode (Tables III and the Figure 2 experiments).
//!
//! [`preemptive`] goes beyond the paper: the priority-preemptive analysis of
//! Nikolić & Indrusiak over virtual channels, which repairs the two regimes
//! conformance campaigns proved the chained-blocking bound unsound in
//! (multi-packet composition and off-calibration buffer depths).
//!
//! [`graph_buffer_aware`] extends the buffer-aware bound to **bursty**
//! arrival-curve traffic (after Giroudot & Mifdaoui, arXiv:1911.02430): a
//! buffer-dependency-graph pass over the heterogeneous per-port depths sizes
//! the cost of queueing behind a flow's own burst backlog — the sixth
//! analysis of the catalog (`docs/ORACLES.md`) and the dominance oracle of
//! bursty conformance sweeps.
//!
//! [`oracle`] exposes all analyses behind one [`oracle::WcttBoundModel`]
//! trait object so the conformance harness (`wnoc-conformance`) can
//! cross-validate the cycle-accurate simulator against every bound uniformly.
//!
//! [`incremental`] layers a mutation-driven term cache over all of the above:
//! design-space exploration applies single-design mutations (move a flow,
//! change a buffer depth, reassign VCs) and re-reads bounds that are
//! bit-identical to freshly-built models, recomputing only the terms whose
//! interference sets actually changed.

pub mod buffer_aware;
pub mod graph_buffer_aware;
pub mod incremental;
pub mod oracle;
pub mod preemptive;
pub mod regular;
pub mod slot;
pub mod table;
pub mod ubd;
pub mod weighted;

pub use buffer_aware::BufferAwareWcttModel;
pub use graph_buffer_aware::GraphBufferAwareWcttModel;
pub use incremental::{Analysis, IncrementalAnalysis, Mutation};
pub use oracle::{
    oracle_suite_with_counts, oracle_suite_with_curve, oracle_suite_with_vcs, AnalyticOnly,
    BufferAwareOracle, GraphBufferAwareOracle, RegularOracle, SlotOracle, UbdOracle,
    WcttBoundModel, WeightedFlavor, WeightedOracle,
};
pub use preemptive::PreemptiveOracle;
pub use regular::{RegularWcttModel, RouteDelta};
pub use table::{WcttSummary, WcttTable, WcttTableRow};
pub use ubd::UpperBoundDelay;
pub use weighted::WeightedWcttModel;

#[cfg(test)]
mod tests {
    //! The from-scratch oracles and [`IncrementalAnalysis`] compose bounds
    //! through the same functions, so their equivalence proptests no longer
    //! check the arithmetic itself.  This pins each shared formula to values
    //! computed by hand from the formulas table of `docs/ORACLES.md`.

    use super::buffer_aware::backpressure;
    use super::graph_buffer_aware::burst_bound;
    use super::preemptive::{packet_bound, train_bound, SATURATION_SENTINEL};
    use super::regular::{own_size_bound, packet_sum};
    use super::slot::{envelope, packet_flits};
    use super::weighted::pipelined;
    use crate::arrival::ArrivalCurve;
    use crate::packetization::{regular_sizes, PacketizationPolicy};

    #[test]
    fn shared_formulas_match_hand_computed_values() {
        // Two-regime backpressure on an excess of 10 flit cycles (D₀ = 4,
        // S = 128): 4·10/1, 4·10/4, 132·10/136, 132·10/192.
        assert_eq!(backpressure(10, 1), 40);
        assert_eq!(backpressure(10, 4), 10);
        assert_eq!(backpressure(10, 8), 9);
        assert_eq!(backpressure(10, 64), 6);

        // A 3-slice message behind a 7-flow bottleneck with 2-flit slices:
        // 100 + (3 − 1)·7·2.  A single slice pays the packet bound only.
        assert_eq!(pipelined(100, 7, 2, 3), 128);
        assert_eq!(pipelined(100, 7, 2, 1), 100);

        // Regular own-size term and Σ composition over a 50-cycle
        // single-flit bound: 50 + (4 − 1), then 53 + 53 + 51.
        assert_eq!(own_size_bound(50, 4), 53);
        assert_eq!(packet_sum(50, [4, 4, 2]), 157);

        // A 6-flit message splits into a 2-packet train (sizes 4 and 2 at
        // L = 4).  At depth envelope 2 and no preemption: Σ = 2·53 + 2·51,
        // plus one extra round 2·53 for the inter-packet gap.
        assert_eq!(regular_sizes(4, 6).collect::<Vec<_>>(), [4, 2]);
        assert_eq!(regular_sizes(4, 0).len(), 0);
        let packet = |size| Some(packet_bound(2, own_size_bound(50, size), 0));
        assert_eq!(
            train_bound(regular_sizes(4, 6), 4, packet),
            Some(106 + 102 + 106)
        );
        assert_eq!(train_bound(regular_sizes(4, 3), 4, packet), Some(2 * 52));
        assert_eq!(packet_bound(2, 53, 5), 111);
        assert_eq!(
            packet_bound(2, 53, SATURATION_SENTINEL),
            SATURATION_SENTINEL
        );

        // The slot envelope is the paper's `3·L + S` at 4 contenders, and
        // never below the packet's own flits; WaP charges one slice.
        assert_eq!(envelope(4, 8, 8), 3 * 8 + 8);
        assert_eq!(envelope(4, 1, 1), 3 + 1);
        assert_eq!(envelope(1, 8, 5), 5);
        assert_eq!(packet_flits(PacketizationPolicy::wap(), 4), 1);
        assert_eq!(
            packet_flits(
                PacketizationPolicy::Regular {
                    max_packet_flits: 4
                },
                3
            ),
            3
        );

        // The graph-based burst term: W + (b − 1)·slot + jitter, and W alone
        // without a burst.
        assert_eq!(burst_bound(500, ArrivalCurve::bursty(4, 2_000), || 70), 710);
        let jittered = ArrivalCurve::bursty(4, 400).with_jitter(25);
        assert_eq!(burst_bound(500, jittered, || 70), 500 + 3 * 70 + 100);
        assert_eq!(burst_bound(500, ArrivalCurve::periodic(2_000), || 70), 500);
    }
}
