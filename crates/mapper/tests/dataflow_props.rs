//! Property tests for the dataflow-aware transfer expansion.
//!
//! Two contracts are pinned on random conv stacks and random placements:
//!
//! 1. the weight-stationary expansion (`placement_transfers`, and
//!    `transfers_for_batch_into` at batch 1) is byte-identical to the
//!    pre-refactor behaviour, reproduced below as a test-only copy of
//!    the seed's fixed spatially-tiled loop;
//! 2. every dataflow mode conserves or strictly reduces the total
//!    transferred bytes relative to that seed scheme — re-stationing and
//!    fused-pipeline elision only ever *replace* a larger activation
//!    slice, never add traffic on top of it.

use std::collections::BTreeMap;

use dnn::{Dataflow, Dataset, GraphBuilder, SegmentGraph};
use mapper::{
    placement_transfers, transfers_for_batch_into, NodeShare, SegmentPlacement, TaskId,
    TaskPlacement, Transfer,
};
use proptest::prelude::*;
use topology::NodeId;

/// Test-only copy of the seed's `placement_transfers`: every segment
/// edge becomes one fixed spatially-tiled activation split between the
/// aligned chiplet shares of each side. The dataflow refactor must keep
/// the weight-stationary mode byte-identical to this loop.
fn seed_tiled_transfers(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
) -> Vec<Transfer> {
    let mut acc: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    for e in sg.edges() {
        let src_place = &tp.segments[e.src.index()];
        let dst_place = &tp.segments[e.dst.index()];
        if src_place.shares.is_empty() || dst_place.shares.is_empty() {
            continue;
        }
        let vol = (e.volume * bytes_per_element) as f64;
        let src_total: u64 = src_place.total_weights();
        let dst_total: u64 = dst_place.total_weights();
        if src_total == 0 || dst_total == 0 {
            continue;
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
                if overlap > 0.0 && a.node != dst_cur.node {
                    let bytes = (vol * overlap).round() as u64;
                    if bytes > 0 {
                        *acc.entry((a.node, dst_cur.node)).or_insert(0) += bytes;
                    }
                }
                if c1 < a1 {
                    match dst_iter.next() {
                        Some(next) => {
                            dst_cur = next;
                            c0 = c1;
                            c1 += dst_cur.weights as f64 / dst_total as f64;
                        }
                        None => break,
                    }
                } else {
                    break;
                }
            }
            a0 = a1;
        }
    }
    acc.into_iter()
        .map(|((src, dst), bytes)| Transfer {
            src,
            dst,
            bytes,
            task: tp.task,
        })
        .collect()
}

/// A random conv stack in the style of the dnn property suite.
fn random_graph(widths: &[u32], with_pool: bool) -> SegmentGraph {
    let mut g = GraphBuilder::new("rand", Dataset::Cifar10);
    let mut cur = g.input();
    for (i, &w) in widths.iter().enumerate() {
        cur = g.conv_bn_relu(cur, &format!("c{i}"), w, 3, 1, 1).unwrap();
        if with_pool && i == 0 {
            cur = g.max_pool(cur, "pool", 2, 2, 0).unwrap();
        }
    }
    let p = g.global_avg_pool(cur, "gap").unwrap();
    g.linear(p, "fc", 10, true).unwrap();
    SegmentGraph::from_layer_graph(&g.build())
}

/// Derives a placement from one `u64` seed per segment: each segment gets
/// 1-3 shares on pseudo-random chiplets with pseudo-random weight splits
/// (a SplitMix64 step per draw keeps the derivation deterministic).
fn random_placement(sg: &SegmentGraph, seeds: &[u64]) -> TaskPlacement {
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let segments = sg
        .segments()
        .iter()
        .map(|seg| {
            let mut state = seeds[seg.id.index() % seeds.len()] ^ seg.id.0 as u64;
            let n_shares = 1 + (next(&mut state) % 3) as usize;
            let shares = (0..n_shares)
                .map(|_| NodeShare {
                    node: NodeId((next(&mut state) % 12) as u32),
                    weights: 1 + next(&mut state) % 997,
                })
                .collect();
            SegmentPlacement {
                segment: seg.id,
                shares,
            }
        })
        .collect();
    TaskPlacement {
        task: TaskId(7),
        model: sg.name().to_string(),
        segments,
    }
}

fn total(ts: &[Transfer]) -> u64 {
    ts.iter().map(|t| t.bytes).sum()
}

/// [`transfers_for_batch_into`] into a fresh buffer.
fn expand(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
    df: Dataflow,
    batch: u64,
) -> Vec<Transfer> {
    let mut out = Vec::new();
    transfers_for_batch_into(tp, sg, bytes_per_element, df, batch, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract 1: weight-stationary is the seed scheme, byte for byte —
    /// same pairs, same order, same rounding.
    #[test]
    fn weight_stationary_is_byte_identical_to_the_seed_scheme(
        widths in prop::collection::vec(8u32..64, 1..8),
        seeds in prop::collection::vec(0u64..u64::MAX, 1..9),
        with_pool in any::<bool>(),
        bpe in 1u64..5,
    ) {
        let sg = random_graph(&widths, with_pool);
        let tp = random_placement(&sg, &seeds);
        let seed = seed_tiled_transfers(&tp, &sg, bpe);
        prop_assert_eq!(&placement_transfers(&tp, &sg, bpe), &seed);
        let ws = expand(&tp, &sg, bpe, Dataflow::WeightStationary, 1);
        prop_assert_eq!(ws, seed);
    }

    /// Contract 2: no dataflow mode ever moves more bytes than the seed
    /// tiled scheme on any placement, at any batch size (the seed scheme
    /// scales linearly with the batch; re-stationing and elision only
    /// ever replace part of it).
    #[test]
    fn every_mode_conserves_or_reduces_total_bytes(
        widths in prop::collection::vec(8u32..64, 1..8),
        seeds in prop::collection::vec(0u64..u64::MAX, 1..9),
        with_pool in any::<bool>(),
        bpe in 1u64..5,
        batch in 1u64..9,
    ) {
        let sg = random_graph(&widths, with_pool);
        let tp = random_placement(&sg, &seeds);
        let ws_total = total(&seed_tiled_transfers(&tp, &sg, bpe)) * batch;
        prop_assert_eq!(
            total(&expand(&tp, &sg, bpe, Dataflow::WeightStationary, batch)),
            ws_total
        );
        for df in Dataflow::all() {
            let t = total(&expand(&tp, &sg, bpe, df, batch));
            prop_assert!(
                t <= ws_total,
                "{df} batch {batch} moved {t} bytes > seed {ws_total}"
            );
        }
    }

    /// Fused-layer elision is real: on a pure chain placed with every
    /// segment on its own chiplet (all edges fusible and cross-node),
    /// fused-layer moves strictly less than the seed scheme.
    #[test]
    fn fused_layer_strictly_reduces_disjoint_chains(
        widths in prop::collection::vec(8u32..64, 2..8),
    ) {
        let sg = random_graph(&widths, false);
        let segments = sg
            .segments()
            .iter()
            .map(|seg| SegmentPlacement {
                segment: seg.id,
                shares: vec![NodeShare {
                    node: NodeId(seg.id.0),
                    weights: seg.params.max(1),
                }],
            })
            .collect();
        let tp = TaskPlacement {
            task: TaskId(0),
            model: sg.name().to_string(),
            segments,
        };
        let ws_total = total(&seed_tiled_transfers(&tp, &sg, 1));
        let fl_total = total(&expand(&tp, &sg, 1, Dataflow::FusedLayer, 1));
        prop_assert!(
            fl_total < ws_total,
            "fused {fl_total} vs seed {ws_total}"
        );
    }
}
