//! Differential oracle for the four hand dataflow modes.
//!
//! Every hand mode is costed as its uniform preset `ModelMapping`: the
//! consumer segment's mapping picks each edge's NoI policy, and the
//! mapping's folded factors scale each MAC. This file keeps the
//! enum-era restatement of both as the reference:
//!
//! * [`oracle_transfers`] expands a placement under one policy for every
//!   edge, taken from the mode itself ([`oracle_policy`]);
//! * [`oracle_segment_cost`] applies the mode's literal
//!   `Dataflow::mac_energy_factor` / `Dataflow::latency_factor`.
//!
//! On one churn outcome per paper architecture and Table II mix, every
//! hand mode at batch 1 and 8 must give the same `Transfer` lists and
//! `ModelComputeCost`s through the production entry points as through
//! the oracle, and the whole Table I zoo must cost identically segment
//! by segment.

use dataflow_pim::dnn::{
    build_model, table1, table2, Dataflow, Dataset, ModelKind, ModelMapping, NoiPolicy, Segment,
    SegmentGraph,
};
use dataflow_pim::mapper::{
    map_task_sfc, placement_transfers, transfers_for_batch_into, transfers_for_batch_mapped_into,
    CapacityLedger, SegmentPlacement, TaskId, TaskPlacement, Transfer,
};
use dataflow_pim::pim::{
    model_cost_mapped, model_cost_with, segment_cost, segment_cost_mapped, ModelComputeCost,
    PimConfig, SegmentCost,
};
use dataflow_pim::topology::NodeId;
use dataflow_pim::{NoiArch, Platform25D, SystemConfig};

/// The NoI policy a hand mode applied to every edge before per-segment
/// mappings existed.
fn oracle_policy(df: Dataflow) -> NoiPolicy {
    match df {
        Dataflow::WeightStationary => NoiPolicy::Tiled,
        Dataflow::OutputStationary => NoiPolicy::StageOncePerBatch,
        Dataflow::InputStationary => NoiPolicy::StagePerFrame,
        Dataflow::FusedLayer => NoiPolicy::FusedHalo,
        Dataflow::Searched => unreachable!("the oracle covers hand modes only"),
    }
}

/// Calls `f(src node, dst node, overlap)` for every overlapping pair of
/// the two sides' spatial slices, in share order.
fn aligned_pairs(
    src_place: &SegmentPlacement,
    dst_place: &SegmentPlacement,
    mut f: impl FnMut(NodeId, NodeId, f64),
) {
    let src_total = src_place.total_weights();
    let dst_total = dst_place.total_weights();
    if src_total == 0 || dst_total == 0 {
        return;
    }
    let mut a0 = 0.0f64;
    let mut dst_iter = dst_place.shares.iter();
    let mut dst_cur = dst_iter.next().expect("non-empty dst");
    let mut c0 = 0.0f64;
    let mut c1 = dst_cur.weights as f64 / dst_total as f64;
    for a in &src_place.shares {
        let a1 = a0 + a.weights as f64 / src_total as f64;
        loop {
            let overlap = (a1.min(c1) - a0.max(c0)).max(0.0);
            if overlap > 0.0 {
                f(a.node, dst_cur.node, overlap);
            }
            if c1 >= a1 {
                break;
            }
            match dst_iter.next() {
                Some(next) => {
                    dst_cur = next;
                    c0 = c1;
                    c1 += dst_cur.weights as f64 / dst_total as f64;
                }
                None => break,
            }
        }
        a0 = a1;
    }
}

/// The enum-era transfer expansion: one policy for every edge, records
/// merged per `(src, dst)` pair and sorted by pair.
fn oracle_transfers(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
    df: Dataflow,
    batch: u64,
) -> Vec<Transfer> {
    let policy = oracle_policy(df);
    let fusible = sg.fusible_edges();
    let mut out: Vec<Transfer> = Vec::new();
    for (ei, e) in sg.edges().iter().enumerate() {
        let src_place = &tp.segments[e.src.index()];
        let dst_place = &tp.segments[e.dst.index()];
        if src_place.shares.is_empty() || dst_place.shares.is_empty() {
            continue;
        }
        let vol = (e.volume * bytes_per_element) as f64;
        let dst_seg = sg.segment(e.dst);
        let weight_bytes = (dst_seg.params * bytes_per_element) as f64;
        let out_bytes = (dst_seg.out_activations * bytes_per_element) as f64;
        let mut add = |src: NodeId, dst: NodeId, bytes: u64| {
            if bytes > 0 {
                out.push(Transfer {
                    src,
                    dst,
                    bytes,
                    task: tp.task,
                });
            }
        };
        aligned_pairs(src_place, dst_place, |sn, dn, overlap| {
            if sn == dn {
                return;
            }
            let act = (vol * overlap).round() as u64;
            let reload = (weight_bytes * overlap).round() as u64;
            let writeback = (out_bytes * overlap).round() as u64;
            match policy {
                NoiPolicy::Tiled => add(sn, dn, act * batch),
                NoiPolicy::StageOncePerBatch if reload + writeback * batch < act * batch => {
                    add(dn, sn, reload);
                    add(sn, dn, writeback * batch);
                }
                NoiPolicy::StagePerFrame if (reload + writeback) * batch < act * batch => {
                    add(dn, sn, reload * batch);
                    add(sn, dn, writeback * batch);
                }
                NoiPolicy::FusedHalo if fusible[ei] => {
                    let halo = (vol * overlap * Dataflow::FUSED_HALO_FRACTION).round() as u64;
                    add(sn, dn, halo * batch);
                }
                _ => add(sn, dn, act * batch),
            }
        });
    }
    out.sort_unstable_by_key(|t| (t.src, t.dst));
    out.dedup_by(|later, kept| {
        let same = (later.src, later.dst) == (kept.src, kept.dst);
        if same {
            kept.bytes += later.bytes;
        }
        same
    });
    out
}

/// The enum-era per-segment compute cost: the crossbar occupancy model
/// scaled by the mode's literal factors.
fn oracle_segment_cost(seg: &Segment, cfg: &PimConfig, df: Dataflow) -> SegmentCost {
    if seg.params == 0 || seg.macs == 0 {
        return SegmentCost {
            nodes: 0,
            crossbars: 0,
            latency_ns: 0.0,
            energy_pj: 0.0,
            utilization: 0.0,
        };
    }
    let crossbars = cfg.crossbars_for_matrix(seg.weight_rows, seg.weight_cols);
    let nodes = crossbars.div_ceil(cfg.crossbars_per_node as u64).max(1);
    let weight_count = seg.weight_rows as u64 * seg.weight_cols as u64;
    let mvm_count = seg.macs.checked_div(weight_count).map_or(1, |v| v.max(1));
    let latency_ns =
        mvm_count as f64 * cfg.activation_bits as f64 * cfg.read_ns * df.latency_factor();
    let energy_pj = seg.macs as f64 * cfg.e_mac_pj * df.mac_energy_factor()
        + cfg.static_power_w * nodes as f64 * latency_ns * 1e3;
    SegmentCost {
        nodes,
        crossbars,
        latency_ns,
        energy_pj,
        utilization: weight_count as f64 / (nodes * cfg.weights_per_node()) as f64,
    }
}

/// [`oracle_segment_cost`] summed over a segment graph in segment order.
fn oracle_model_cost(sg: &SegmentGraph, cfg: &PimConfig, df: Dataflow) -> ModelComputeCost {
    let mut total = ModelComputeCost {
        total_nodes: 0,
        latency_ns: 0.0,
        energy_pj: 0.0,
    };
    for seg in sg.segments() {
        let c = oracle_segment_cost(seg, cfg, df);
        total.total_nodes += c.nodes;
        total.latency_ns += c.latency_ns;
        total.energy_pj += c.energy_pj;
    }
    total
}

/// Checks one placement under every hand mode at batch 1 and 8, through
/// both production expansions and the weight-stationary entry point,
/// against the oracle.
fn check_placement(tp: &TaskPlacement, sg: &SegmentGraph, bpe: u64, cell: &str) {
    let mut enum_entry = Vec::new();
    let mut mapped_entry = Vec::new();
    for df in Dataflow::all() {
        let preset = ModelMapping::preset(df, sg);
        for batch in [1u64, 8] {
            let want = oracle_transfers(tp, sg, bpe, df, batch);
            transfers_for_batch_into(tp, sg, bpe, df, batch, &mut enum_entry);
            transfers_for_batch_mapped_into(tp, sg, bpe, &preset, batch, &mut mapped_entry);
            let what = format!("{cell} task {} {df} batch {batch}", tp.task.0);
            assert_eq!(enum_entry, want, "{what}: Dataflow entry point");
            assert_eq!(mapped_entry, want, "{what}: preset mapping");
        }
    }
    assert_eq!(
        placement_transfers(tp, sg, bpe),
        oracle_transfers(tp, sg, bpe, Dataflow::WeightStationary, 1),
        "{cell} task {}: placement_transfers",
        tp.task.0
    );
}

#[test]
fn hand_modes_match_the_oracle_on_every_churn_outcome() {
    let cfg = SystemConfig::datacenter_25d();
    let bpe = cfg.activation_bytes;
    let mut placements = 0usize;
    let mut costed = 0usize;
    for arch in NoiArch::all() {
        let p = Platform25D::new(arch, &cfg).expect("paper architectures build");
        for wl in table2() {
            let cell = format!("{}/{}", p.arch_name(), wl.name);
            let graphs = Platform25D::task_graphs(&wl);
            let outcome = p.churn_outcome_from_graphs(&graphs);
            for tp in &outcome.placements {
                let sg = &graphs[tp.task.index()];
                check_placement(tp, sg, bpe, &cell);
                for df in Dataflow::all() {
                    let want = oracle_model_cost(sg, &cfg.pim, df);
                    assert_eq!(
                        model_cost_with(sg, &cfg.pim, df),
                        want,
                        "{cell} {df}: Dataflow entry point"
                    );
                    assert_eq!(
                        model_cost_mapped(sg, &cfg.pim, &ModelMapping::preset(df, sg)),
                        want,
                        "{cell} {df}: preset mapping"
                    );
                    costed += 1;
                }
                placements += 1;
            }
        }
    }
    // 4 architectures × 5 mixes; every mix places tens of tasks.
    assert!(placements > 400, "only {placements} placements checked");
    assert_eq!(costed, placements * 4);
}

#[test]
fn uniform_preset_mappings_expand_byte_identically_to_the_oracle() {
    // Contiguous SFC placements on Floret, one model per side of the
    // fusible/non-fusible divide: ResNet-18's skip joins and VGG-11's
    // pure chain.
    let (_, layout) = dataflow_pim::topology::floret(10, 10, 6).expect("floret builds");
    let order = layout.global_order();
    for (kind, dataset) in [
        (ModelKind::ResNet18, Dataset::ImageNet),
        (ModelKind::Vgg11, Dataset::Cifar10),
    ] {
        let sg = SegmentGraph::from_layer_graph(&build_model(kind, dataset).unwrap());
        let mut ledger = CapacityLedger::new(100, 1_000_000);
        let tp = map_task_sfc(&mut ledger, &order, TaskId(0), &sg).expect("fits");
        assert!(
            tp.used_nodes().len() > 1,
            "{} must span chiplets",
            sg.name()
        );
        check_placement(&tp, &sg, 2, sg.name());
    }
}

#[test]
fn preset_mappings_cost_byte_identically_to_the_oracle_on_the_whole_zoo() {
    // Every Table I model, every hand mode, segment by segment: the
    // preset mapping costs the same doubles as the literal factors, and
    // the weight-stationary entry point stays the seed cost model.
    let cfg = PimConfig::default();
    for entry in table1() {
        let sg = SegmentGraph::from_layer_graph(&build_model(entry.kind, entry.dataset).unwrap());
        for df in Dataflow::all() {
            let mm = ModelMapping::preset(df, &sg);
            assert_eq!(
                model_cost_mapped(&sg, &cfg, &mm),
                oracle_model_cost(&sg, &cfg, df),
                "{} {df}",
                sg.name()
            );
            assert_eq!(
                model_cost_with(&sg, &cfg, df),
                oracle_model_cost(&sg, &cfg, df),
                "{} {df}",
                sg.name()
            );
            for (idx, seg) in sg.segments().iter().enumerate() {
                let want = oracle_segment_cost(seg, &cfg, df);
                assert_eq!(
                    segment_cost_mapped(seg, &cfg, mm.segment(idx)),
                    want,
                    "{} {df} {}",
                    sg.name(),
                    seg.name
                );
                if df == Dataflow::WeightStationary {
                    assert_eq!(segment_cost(seg, &cfg), want, "{} {}", sg.name(), seg.name);
                }
            }
        }
    }
}
