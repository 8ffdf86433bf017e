//! The single-output-port arbitration-slot model of Section III.
//!
//! For an output port contended by `k` input ports under round-robin
//! arbitration, a newly arrived packet of `s` flits may have to wait for each of
//! the other `k - 1` contenders to transmit one maximum-size packet of `l`
//! flits before transmitting itself:
//!
//! ```text
//! regular packetization:  (k - 1) · L + S
//! WaP (minimum packets):  (k - 1) · m + m
//! ```
//!
//! The paper's worked example uses `k = 4` contending input ports, giving
//! `3·L + S` vs `3·m + m`.

use crate::arbitration::ArbitrationPolicy;
use crate::packetization::PacketizationPolicy;
use crate::port::Port;
use crate::routing::{Hop, Route};

/// Worst-case latency (in flit cycles) for an `own_flits`-long packet to clear
/// an output port contended by `contending_inputs` input ports in total
/// (including its own), when every other contender may transmit a packet of
/// `contender_flits` flits first.
///
/// # Examples
///
/// ```
/// use wnoc_core::analysis::slot::contended_port_latency;
///
/// // Section III example: 4 contending inputs, 8-flit contenders, 8-flit own
/// // packet under regular packetization...
/// assert_eq!(contended_port_latency(4, 8, 8), 3 * 8 + 8);
/// // ...vs single-flit packets under WaP.
/// assert_eq!(contended_port_latency(4, 1, 1), 3 + 1);
/// ```
pub fn contended_port_latency(contending_inputs: u32, contender_flits: u32, own_flits: u32) -> u64 {
    let others = u64::from(contending_inputs.saturating_sub(1));
    others * u64::from(contender_flits) + u64::from(own_flits)
}

/// The slot envelope of a route whose most contended hop has `contenders`
/// contending input ports: the single-port latency of that hop, and never
/// less than the packet's own `own_flits`.  [`contended_port_latency`] is
/// monotone in the contender count, so the most contended hop is the only
/// one that matters.
pub(crate) fn envelope(contenders: u32, contender_flits: u32, own_flits: u32) -> u64 {
    u64::from(own_flits).max(contended_port_latency(
        contenders,
        contender_flits,
        own_flits,
    ))
}

/// Contending input ports at the most contended hop of `route`, the
/// packet's own included (at least 1).  Round robin arbitrates between input
/// ports, so a hop counts its `other_inputs` plus the packet's own; WaW
/// shares the port between the `output_flows` flows using it.
pub(crate) fn route_contenders(
    arbitration: ArbitrationPolicy,
    route: &Route,
    other_inputs: impl Fn(&Hop) -> u32,
    output_flows: impl Fn(&Hop) -> u32,
) -> u32 {
    route
        .hops()
        .iter()
        .map(|hop| match arbitration {
            ArbitrationPolicy::RoundRobin => other_inputs(hop) + 1,
            ArbitrationPolicy::Waw => output_flows(hop).max(1),
        })
        .fold(1, u32::max)
}

/// The bit of `port` in a support mask: bit `i` stands for `Port::ALL[i]`.
#[inline]
pub(crate) fn port_bit(port: Port) -> u8 {
    1 << port.index()
}

/// Input ports other than the packet's own `input` that carry a flow towards
/// `output`, given the `support` mask of that output's column (bit `p` set
/// iff input `p` carries one): the contenders round robin serves before it.
#[inline]
pub(crate) fn other_inputs(input: Port, output: Port, support: u8) -> u32 {
    (support & !(port_bit(input) | port_bit(output))).count_ones()
}

/// The flits the envelope charges the packet under analysis on a packet
/// query: the queried size under regular packetization, one minimum slice
/// under WaP (every WaP wire packet is a slice).
pub(crate) fn packet_flits(packetization: PacketizationPolicy, own_flits: u32) -> u32 {
    match packetization {
        PacketizationPolicy::Regular { .. } => own_flits,
        PacketizationPolicy::Wap { min_packet_flits } => min_packet_flits,
    }
}

/// The improvement factor of WaP over regular packetization for a single
/// contended port: `((k-1)·L + S) / ((k-1)·m + m)`.
pub fn wap_improvement_factor(
    contending_inputs: u32,
    max_packet_flits: u32,
    own_flits: u32,
    min_packet_flits: u32,
) -> f64 {
    let regular = contended_port_latency(contending_inputs, max_packet_flits, own_flits) as f64;
    let wap = contended_port_latency(contending_inputs, min_packet_flits, min_packet_flits) as f64;
    regular / wap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // "the worst-case latency for a S-flit packet for reaching an output
        //  port to which 4 different input ports are contending is 3*L + S"
        let l = 16;
        let s = 4;
        assert_eq!(contended_port_latency(4, l, s), 3 * 16 + 4);
        // "with WaP, for a minimum packet size of m, the worst-case latency is
        //  3*m + m"
        let m = 1;
        assert_eq!(contended_port_latency(4, m, m), 4);
    }

    #[test]
    fn single_contender_has_no_waiting() {
        assert_eq!(contended_port_latency(1, 99, 5), 5);
        assert_eq!(contended_port_latency(0, 99, 5), 5);
    }

    #[test]
    fn latency_grows_linearly_with_contender_size() {
        let a = contended_port_latency(4, 4, 1);
        let b = contended_port_latency(4, 8, 1);
        assert_eq!(b - a, 3 * 4);
    }

    #[test]
    fn improvement_factor_grows_with_packet_size() {
        let f4 = wap_improvement_factor(4, 4, 4, 1);
        let f8 = wap_improvement_factor(4, 8, 8, 1);
        assert!(f8 > f4);
        assert!(f4 > 1.0);
    }
}
