//! Pins the packet DES's deterministic work counts.
//!
//! Built only from public API. The canonical funnel (24 sources on a
//! 5×5 mesh all sending 4 KiB to node 24) pins every [`SimReport`]
//! field. The per-arch totals replay every weight-stationary snapshot
//! the 2.5D platform replays for one paper architecture (as in
//! `des_invariants.rs`) and pin the summed `heap_events`, `packets` and
//! `total_channel_wait_cycles`. A change that adds or drops scheduler
//! events, or moves any packet in time, fails here.

mod common;

use common::{for_each_cell, ws_snapshot_flows, PACKET_BYTES};
use dataflow_pim::netsim::{
    simulate, simulate_with_scratch, Flow, SimConfig, SimReport, SimScratch,
};
use dataflow_pim::topology::{mesh2d, HwParams, NodeId};

#[test]
fn canonical_funnel_report_is_pinned() {
    let topo = mesh2d(5, 5).unwrap();
    let flows: Vec<Flow> = (0..24)
        .map(|i| Flow::new(NodeId(i), NodeId(24), 4096))
        .collect();
    let rep = simulate(&topo, &HwParams::default(), &flows, &SimConfig::default());
    assert_eq!(
        rep,
        SimReport {
            makespan_cycles: 2569,
            // Σ delivery cycles / packets, and Σ hop latency / traversals
            // (96 NI + 400 link traversals), in the report's arithmetic.
            mean_packet_latency_cycles: 108_896.0 / 96.0,
            p95_packet_latency_cycles: 2441,
            packets: 96,
            flit_hops: 12_800,
            total_energy_pj: 8_796_346.777_599_968,
            mean_hop_header_latency_cycles: 105_824.0 / 496.0,
            max_hop_header_latency_cycles: 640,
            total_channel_wait_cycles: 103_440,
            heap_events: 1025,
            total_fault_wait_cycles: 0,
            faulted_traversals: 0,
        }
    );
}

/// `(heap_events, packets, total_channel_wait_cycles)` summed over every
/// snapshot the platform replays on the paper architecture `name`.
fn snapshot_totals(name: &str) -> (u64, u64, u64) {
    let sim_cfg = SimConfig {
        packet_bytes: PACKET_BYTES,
    };
    let mut scratch = SimScratch::new();
    let mut totals = (0u64, 0u64, 0u64);
    for_each_cell(name, |p, cfg, wl| {
        for (_, sampled) in ws_snapshot_flows(p, cfg, wl) {
            let des = simulate_with_scratch(
                p.topology(),
                &cfg.hw,
                &sampled,
                &sim_cfg,
                p.route_table(),
                &mut scratch,
            );
            totals.0 += des.heap_events;
            totals.1 += des.packets;
            totals.2 += des.total_channel_wait_cycles;
        }
    });
    totals
}

#[test]
fn floret_snapshot_counts_are_pinned() {
    let totals = snapshot_totals("Floret");
    assert_eq!(totals, (1_080_183, 231_788, 441_246_597));
}
