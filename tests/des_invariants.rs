//! Cross-layer invariants between the packet DES and the analytical NoI
//! model, on the traffic the paper's 2.5D platform actually replays.
//!
//! Built only from public API: for every paper architecture, Table II
//! mix and batch size, the weight-stationary cell is rebuilt layer by
//! layer (churn placement, transfer expansion, snapshot sampling) and
//! every snapshot `Platform25D` replays — every `snapshot_every`-th plus
//! the last — is fed to both network models. On each snapshot:
//!
//! * the DES makespan never beats the analytical bound;
//! * both models charge the same path energy (to 1e-9 relative);
//! * both count the same flit hops;
//! * the DES delivers exactly ⌈bytes / packet⌉ packets per flow.
//!
//! The summed DES makespans must also equal the platform's own
//! `sim_latency_cycles`, so the snapshots checked here are the ones the
//! platform replays.

mod common;

use common::{for_each_cell, ws_snapshot_flows, PACKET_BYTES};
use dataflow_pim::dnn::Dataflow;
use dataflow_pim::netsim::{analyze_with_table, simulate_with_scratch, SimConfig, SimScratch};

/// Checks every Table II mix at batch 1 and 8 on the paper
/// architecture called `name`.
fn check_arch(name: &str) {
    let sim_cfg = SimConfig {
        packet_bytes: PACKET_BYTES,
    };
    let mut scratch = SimScratch::new();
    let mut checked = 0usize;
    for_each_cell(name, |p, cfg, wl| {
        let cell = format!("{}/{}/b{}", p.arch_name(), wl.name, cfg.batch);
        let (topo, route) = (p.topology(), p.route_table());
        let mut sim_latency = 0u64;
        for (si, sampled) in ws_snapshot_flows(p, cfg, wl) {
            let des = simulate_with_scratch(topo, &cfg.hw, &sampled, &sim_cfg, route, &mut scratch);
            let ana = analyze_with_table(topo, &cfg.hw, &sampled, route);
            sim_latency += des.makespan_cycles;
            checked += 1;

            assert!(
                des.makespan_cycles >= ana.makespan_cycles,
                "{cell} snapshot {si}: DES {} beat the analytical bound {}",
                des.makespan_cycles,
                ana.makespan_cycles
            );
            let rel = (des.total_energy_pj - ana.total_energy_pj).abs()
                / ana.total_energy_pj.abs().max(f64::MIN_POSITIVE);
            assert!(
                rel <= 1e-9,
                "{cell} snapshot {si}: energy DES {} vs analytic {} (rel {rel:e})",
                des.total_energy_pj,
                ana.total_energy_pj
            );
            assert_eq!(
                des.flit_hops, ana.flit_hops,
                "{cell} snapshot {si}: flit hops"
            );
            let packets: u64 = sampled
                .iter()
                .filter(|f| f.src != f.dst && f.bytes > 0)
                .map(|f| f.bytes.div_ceil(u64::from(PACKET_BYTES)))
                .sum();
            assert_eq!(des.packets, packets, "{cell} snapshot {si}: packets");
        }

        let report = p.run_workload_with(wl, Dataflow::WeightStationary);
        assert_eq!(
            sim_latency, report.sim_latency_cycles,
            "{cell}: the replayed snapshots must be the platform's"
        );
    });
    assert!(checked > 0, "no snapshot was replayed");
}

#[test]
fn kite_snapshots_agree() {
    check_arch("Kite");
}

#[test]
fn siam_snapshots_agree() {
    check_arch("SIAM");
}

#[test]
fn swap_snapshots_agree() {
    check_arch("SWAP");
}

#[test]
fn floret_snapshots_agree() {
    check_arch("Floret");
}
