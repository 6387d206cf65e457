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

use std::collections::BTreeMap;

use dataflow_pim::dnn::{table2, Dataflow};
use dataflow_pim::mapper::transfers_for_batch_into;
use dataflow_pim::netsim::{
    analyze_with_table, sample_flows_into, simulate_with_scratch, Flow, SimConfig, SimScratch,
};
use dataflow_pim::{NoiArch, Platform25D, SystemConfig};

/// Packet size of the platform's snapshot replay.
const PACKET_BYTES: u32 = 256;

/// Checks every Table II mix at batch 1 and 8 on the paper
/// architecture called `name`.
fn check_arch(name: &str) {
    let arch = NoiArch::all()
        .into_iter()
        .find(|a| a.name() == name)
        .expect("a paper architecture");
    let sim_cfg = SimConfig {
        packet_bytes: PACKET_BYTES,
    };
    let mut scratch = SimScratch::new();
    let mut transfers = Vec::new();
    let mut sampled = Vec::new();
    let mut checked = 0usize;
    for batch in [1u32, 8] {
        let cfg = SystemConfig {
            batch,
            ..SystemConfig::datacenter_25d()
        };
        let p = Platform25D::new(arch.clone(), &cfg).expect("paper archs build");
        let (topo, route) = (p.topology(), p.route_table());
        for wl in table2() {
            let cell = format!("{}/{}/b{batch}", p.arch_name(), wl.name);
            let graphs = Platform25D::task_graphs(&wl);
            let outcome = p.map_workload_churn(&wl);
            let task_flows: Vec<Vec<Flow>> = outcome
                .placements
                .iter()
                .map(|tp| {
                    transfers_for_batch_into(
                        tp,
                        &graphs[tp.task.index()],
                        cfg.activation_bytes,
                        Dataflow::WeightStationary,
                        u64::from(cfg.batch),
                        &mut transfers,
                    );
                    transfers
                        .iter()
                        .map(|x| Flow::new(x.src, x.dst, x.bytes))
                        .collect()
                })
                .collect();
            let slot: BTreeMap<u32, usize> = outcome
                .placements
                .iter()
                .enumerate()
                .map(|(i, tp)| (tp.task.0, i))
                .collect();

            let every = cfg.snapshot_every.max(1) as usize;
            let n_snaps = outcome.snapshots.len();
            let mut sim_latency = 0u64;
            for (si, snap) in outcome.snapshots.iter().enumerate() {
                if si % every != 0 && si + 1 != n_snaps {
                    continue;
                }
                let flows: Vec<Flow> = snap
                    .iter()
                    .filter_map(|task| slot.get(&task.0))
                    .flat_map(|&i| task_flows[i].iter().copied())
                    .collect();
                if flows.is_empty() {
                    continue;
                }
                sample_flows_into(&flows, cfg.sim_sampling, &mut sampled);
                let des =
                    simulate_with_scratch(topo, &cfg.hw, &sampled, &sim_cfg, route, &mut scratch);
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

            let report = p.run_workload_with(&wl, Dataflow::WeightStationary);
            assert_eq!(
                sim_latency, report.sim_latency_cycles,
                "{cell}: the replayed snapshots must be the platform's"
            );
        }
    }
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
