//! Shared helpers for the root integration tests that replay the
//! 2.5D platform's network snapshots outside the platform.

use std::collections::BTreeMap;

use dataflow_pim::dnn::{table2, Dataflow, Workload};
use dataflow_pim::mapper::transfers_for_batch_into;
use dataflow_pim::netsim::{sample_flows_into, Flow};
use dataflow_pim::{NoiArch, Platform25D, SystemConfig};

/// Packet size of the platform's snapshot replay.
pub const PACKET_BYTES: u32 = 256;

/// Calls `visit(platform, cfg, workload)` for every Table II mix at
/// batch 1 and 8 on the paper architecture called `name`, on
/// `SystemConfig::datacenter_25d()`.
pub fn for_each_cell(name: &str, mut visit: impl FnMut(&Platform25D, &SystemConfig, &Workload)) {
    let arch = NoiArch::all()
        .into_iter()
        .find(|a| a.name() == name)
        .expect("a paper architecture");
    for batch in [1u32, 8] {
        let cfg = SystemConfig {
            batch,
            ..SystemConfig::datacenter_25d()
        };
        let p = Platform25D::new(arch.clone(), &cfg).expect("paper archs build");
        for wl in table2() {
            visit(&p, &cfg, &wl);
        }
    }
}

/// The weight-stationary cell rebuilt layer by layer (churn placement,
/// transfer expansion, snapshot sampling): the sampled flow set of
/// every snapshot `p` replays — every `snapshot_every`-th plus the last,
/// skipping empty ones — paired with its snapshot index, in replay
/// order.
pub fn ws_snapshot_flows(
    p: &Platform25D,
    cfg: &SystemConfig,
    wl: &Workload,
) -> Vec<(usize, Vec<Flow>)> {
    let graphs = Platform25D::task_graphs(wl);
    let outcome = p.map_workload_churn(wl);
    let mut transfers = Vec::new();
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
    let mut out = Vec::new();
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
        let mut sampled = Vec::new();
        sample_flows_into(&flows, cfg.sim_sampling, &mut sampled);
        out.push((si, sampled));
    }
    out
}
