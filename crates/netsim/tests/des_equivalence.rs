//! Differential equivalence of the arena/SoA event loop.
//!
//! `reference_simulate` below is a test-only retelling of the simulator
//! as it stood **before** the arena/SoA rewrite: each packet owns boxed
//! `Vec`s (AoS), channel wait queues are `VecDeque`s, and every event —
//! the whole time-0 injection burst, every source-NI wake and every
//! delivery included — goes through a `std::collections::BinaryHeap` of
//! its own, so the reference shares no scheduler code with the engine's
//! [`netsim::EventQueue`]. It is built purely from `netsim`'s public API
//! and computes the full [`SimReport`] from a sorted latency list. The
//! production engine replaces all of that with per-flow route records,
//! an index-linked wait-node pool, source NIs and deliveries resolved in
//! closed form, and a report read by selection, and must stay
//! *observationally identical*: every field of
//! the report, including float sums (same accumulation order),
//! nearest-rank p95s, and `heap_events`, must match bit for bit on any
//! topology, flow set, and packet size — with a fresh scratch or one
//! dirtied by arbitrary earlier runs.
//!
//! The reference also carries its own transient link blackouts (sorted
//! and merged per directed channel, applied to every header arrival and
//! re-checked when the deferred header re-arrives), so
//! [`simulate_faulty_with_scratch`] is held to the same bit-for-bit
//! standard, fault totals included.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use netsim::{
    simulate_faulty_with_scratch, simulate_with_scratch, simulate_with_table, Flow, LinkFaults,
    RouteTable, SimConfig, SimReport, SimScratch,
};
use proptest::prelude::*;
use topology::{floret, kite, mesh2d, HwParams, LinkId, NodeId, Topology};

/// AoS packet record, as the pre-arena engine stored it.
struct Packet {
    channels: Vec<u32>,
    hop_delay: Vec<u64>,
    ser_cycles: u64,
    delivered_at: u64,
}

/// Event key packing shared with the engine: releases (tag 0) drain
/// before header arrivals (tag 1) at the same cycle, headers order by
/// `(seq, hop)`.
fn free_key(ch: u32) -> u64 {
    (ch as u64) << 16
}
fn header_key(seq: u32, hop: u16) -> u64 {
    (1u64 << 48) | ((seq as u64) << 16) | hop as u64
}

fn percentile_nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// Per-directed-channel blackout windows from undirected link windows:
/// each `(link, start, end)` covers both directions; empty windows are
/// dropped, and each channel's list is sorted and overlapping or
/// touching windows merged.
fn channel_windows(
    n_links: usize,
    n_channels: usize,
    windows: &[(LinkId, u64, u64)],
) -> Vec<Vec<(u64, u64)>> {
    let mut per_channel = vec![Vec::new(); n_channels];
    for &(lid, start, end) in windows {
        if start < end {
            per_channel[lid.0 as usize].push((start, end));
            per_channel[lid.0 as usize + n_links].push((start, end));
        }
    }
    for w in &mut per_channel {
        w.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for &(start, end) in w.iter() {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        *w = merged;
    }
    per_channel
}

/// The pre-arena wait-queue simulator, end to end: AoS packet build
/// (same flow/hop iteration order, so float energy sums agree exactly),
/// a min-heap-driven loop with `VecDeque` wait queues, and the same
/// report arithmetic. A header arriving at a channel inside one of
/// `windows` is deferred to the window end by one rescheduled event.
fn reference_simulate(
    topo: &Topology,
    hw: &HwParams,
    flows: &[Flow],
    cfg: &SimConfig,
    rt: &RouteTable,
    windows: &[(LinkId, u64, u64)],
) -> SimReport {
    assert!(cfg.packet_bytes > 0);
    let n_links = topo.link_count();
    let ni_base = 2 * n_links;
    let n_channels = 2 * n_links + topo.node_count();
    let blackouts = channel_windows(n_links, n_channels, windows);

    // --- AoS packet build ---------------------------------------------
    let mut packets: Vec<Packet> = Vec::new();
    let mut energy_pj = 0.0f64;
    let mut flit_hops = 0u64;
    for f in flows {
        if f.src == f.dst || f.bytes == 0 {
            continue;
        }
        let path = rt.path(topo, f.src, f.dst);
        let mut remaining = f.bytes;
        while remaining > 0 {
            let size = remaining.min(cfg.packet_bytes as u64);
            remaining -= size;
            let flits = size.div_ceil(hw.flit_bytes as u64).max(1);
            let bits = size * 8;
            let mut channels = vec![ni_base as u32 + f.src.0];
            let mut hop_delay = vec![hw.router_pipeline_cycles as u64];
            let mut at = f.src;
            for lid in &path {
                let link = topo.link(*lid);
                channels.push(if link.a == at {
                    lid.0
                } else {
                    lid.0 + n_links as u32
                });
                hop_delay.push(hw.hop_cycles(link.length_hops));
                energy_pj += hw.hop_energy_pj(bits, topo.ports(at), link.length_hops);
                flit_hops += flits;
                at = link.opposite(at);
            }
            energy_pj += bits as f64 * hw.router_energy_pj_per_bit(topo.ports(f.dst));
            packets.push(Packet {
                channels,
                hop_delay,
                ser_cycles: flits,
                delivered_at: 0,
            });
        }
    }

    // --- Wait-queue event loop, everything through the heap -----------
    let mut busy_until = vec![0u64; n_channels];
    let mut waiters: Vec<VecDeque<(u32, u16, u64)>> = vec![VecDeque::new(); n_channels];
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut hop_traversals = 0u64;
    let mut hop_latency_total = 0u64;
    let mut hop_latency_max = 0u64;
    let mut wait_total = 0u64;
    let mut heap_events = 0u64;
    let mut fault_wait_total = 0u64;
    let mut faulted_traversals = 0u64;

    for seq in 0..packets.len() {
        queue.push(Reverse((0, header_key(seq as u32, 0))));
    }

    // Grants `seq` its `hop`-th channel at `now` and schedules the next
    // header arrival.
    macro_rules! acquire {
        ($seq:expr, $hop:expr, $now:expr, $arrived:expr) => {{
            let p = &packets[$seq as usize];
            let ch = p.channels[$hop as usize] as usize;
            busy_until[ch] = $now + p.ser_cycles;
            let header_arrives = $now + p.hop_delay[$hop as usize];
            let hop_latency = header_arrives - $arrived;
            hop_traversals += 1;
            hop_latency_total += hop_latency;
            hop_latency_max = hop_latency_max.max(hop_latency);
            wait_total += $now - $arrived;
            queue.push(Reverse((header_arrives, header_key($seq, $hop + 1))));
        }};
    }

    while let Some(Reverse((time, key))) = queue.pop() {
        heap_events += 1;
        if key >> 48 == 0 {
            // Free: serve the channel's front waiter, re-arm if more.
            let ch = ((key >> 16) & 0xFFFF_FFFF) as usize;
            let (seq, hop, arrived) = waiters[ch]
                .pop_front()
                .expect("Free armed only while waiters are parked");
            acquire!(seq, hop, time, arrived);
            if !waiters[ch].is_empty() {
                queue.push(Reverse((busy_until[ch], free_key(ch as u32))));
            }
        } else {
            let seq = ((key >> 16) & 0xFFFF_FFFF) as u32;
            let hop = (key & 0xFFFF) as u16;
            let p = &packets[seq as usize];
            if hop as usize >= p.channels.len() {
                packets[seq as usize].delivered_at = time + p.ser_cycles;
                continue;
            }
            let ch = p.channels[hop as usize] as usize;
            if let Some(&(_, end)) = blackouts[ch]
                .iter()
                .find(|&&(start, end)| start <= time && time < end)
            {
                fault_wait_total += end - time;
                faulted_traversals += 1;
                queue.push(Reverse((end, key)));
                continue;
            }
            if busy_until[ch] <= time && waiters[ch].is_empty() {
                acquire!(seq, hop, time, time);
            } else {
                if waiters[ch].is_empty() {
                    queue.push(Reverse((busy_until[ch], free_key(ch as u32))));
                }
                waiters[ch].push_back((seq, hop, time));
            }
        }
    }

    // --- Report -------------------------------------------------------
    let mut latencies: Vec<u64> = packets.iter().map(|p| p.delivered_at).collect();
    latencies.sort_unstable();
    let makespan = latencies.last().copied().unwrap_or(0);
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    SimReport {
        makespan_cycles: makespan,
        mean_packet_latency_cycles: mean,
        p95_packet_latency_cycles: percentile_nearest_rank(&latencies, 95),
        packets: latencies.len() as u64,
        flit_hops,
        total_energy_pj: energy_pj,
        mean_hop_header_latency_cycles: if hop_traversals == 0 {
            0.0
        } else {
            hop_latency_total as f64 / hop_traversals as f64
        },
        max_hop_header_latency_cycles: hop_latency_max,
        total_channel_wait_cycles: wait_total,
        heap_events,
        total_fault_wait_cycles: fault_wait_total,
        faulted_traversals,
    }
}

fn arb_topology(idx: usize) -> Topology {
    match idx % 3 {
        0 => mesh2d(6, 6).unwrap(),
        1 => kite(6, 6).unwrap(),
        _ => floret(6, 6, 4).unwrap().0,
    }
}

/// Deterministic flow set from a seed; deliberately includes degenerate
/// flows (`src == dst`, zero bytes) and both tiny and multi-packet
/// volumes.
fn flow_set(seed: u64, n: usize) -> Vec<Flow> {
    (0..n)
        .map(|i| {
            let s = ((seed as usize).wrapping_add(i * 13)) % 36;
            let d = if i % 7 == 3 {
                s // degenerate: src == dst
            } else {
                ((seed as usize).wrapping_add(i * 19 + 5)) % 36
            };
            let bytes = if i % 11 == 6 {
                0 // degenerate: no payload
            } else {
                17 + (seed.wrapping_mul(31) + i as u64 * 911) % 6000
            };
            Flow::new(NodeId(s as u32), NodeId(d as u32), bytes)
        })
        .collect()
}

/// Deterministic blackout set from a seed. The first link out of the
/// source that injects the most packets gets three windows: a window
/// starting early (so that source's queued packets hit it), a second one
/// touching it (merged into one), and a third one a single cycle after
/// (a header deferred to the merged end re-arrives healthy, and the next
/// packets run into the third). `n_random` more windows land on random
/// links, with random starts and lengths, overlaps included.
fn window_set(
    topo: &Topology,
    rt: &RouteTable,
    flows: &[Flow],
    cfg: &SimConfig,
    seed: u64,
    n_random: usize,
) -> Vec<(LinkId, u64, u64)> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = |modulo: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % modulo
    };
    let mut windows = Vec::new();
    let mut packets_per_src = vec![0u64; topo.node_count()];
    for f in flows.iter().filter(|f| f.src != f.dst && f.bytes > 0) {
        packets_per_src[f.src.0 as usize] += f.bytes.div_ceil(u64::from(cfg.packet_bytes));
    }
    let busiest = (0..packets_per_src.len()).max_by_key(|&n| (packets_per_src[n], n));
    if let Some(f) = busiest.filter(|&n| packets_per_src[n] > 0).and_then(|n| {
        flows
            .iter()
            .find(|f| f.src.0 as usize == n && f.dst != f.src && f.bytes > 0)
    }) {
        let first_link = rt.path(topo, f.src, f.dst)[0];
        let start = next(40);
        let mid = start + 1 + next(120);
        let end = mid + 1 + next(120);
        windows.push((first_link, start, mid));
        windows.push((first_link, mid, end));
        windows.push((first_link, end + 1, end + 2 + next(200)));
    }
    for _ in 0..n_random {
        let link = LinkId(next(topo.link_count() as u64) as u32);
        let start = next(4000);
        windows.push((link, start, start + 1 + next(300)));
    }
    windows
}

/// The faulty engine against the reference under `windows`: fresh
/// scratch, and a scratch dirtied by a faulty and a healthy run first.
fn faulty_runs(
    topo: &Topology,
    hw: &HwParams,
    flows: &[Flow],
    cfg: &SimConfig,
    rt: &RouteTable,
    windows: &[(LinkId, u64, u64)],
    seed: u64,
) -> (SimReport, SimReport) {
    let faults = LinkFaults::from_link_windows(topo, windows);
    let fresh =
        simulate_faulty_with_scratch(topo, hw, flows, cfg, rt, &faults, &mut SimScratch::new());
    let mut scratch = SimScratch::new();
    let other = flow_set(seed ^ 0x5DEECE66D, 24);
    let other_faults =
        LinkFaults::from_link_windows(topo, &window_set(topo, rt, &other, cfg, seed, 6));
    simulate_faulty_with_scratch(topo, hw, &other, cfg, rt, &other_faults, &mut scratch);
    simulate_with_scratch(
        topo,
        hw,
        &flow_set(seed.wrapping_add(7), 3),
        cfg,
        rt,
        &mut scratch,
    );
    let dirty = simulate_faulty_with_scratch(topo, hw, flows, cfg, rt, &faults, &mut scratch);
    (fresh, dirty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena engine reproduces the pre-arena loop's `SimReport`
    /// exactly — fresh scratch and dirty scratch alike — on random
    /// topologies, flow sets, and packet sizes.
    #[test]
    fn arena_engine_matches_pre_arena_reference(
        topo_idx in 0usize..3,
        seed in 0u64..10_000,
        n in 0usize..30,
        pb_idx in 0usize..4,
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams::default();
        let cfg = SimConfig { packet_bytes: [64u32, 256, 1024, 4096][pb_idx] };
        let rt = RouteTable::build(&topo, &hw);
        let flows = flow_set(seed, n);

        let expect = reference_simulate(&topo, &hw, &flows, &cfg, &rt, &[]);
        let fresh = simulate_with_table(&topo, &hw, &flows, &cfg, &rt);
        prop_assert_eq!(&fresh, &expect);

        // Same run through a scratch dirtied by two unrelated workloads.
        let mut scratch = SimScratch::new();
        simulate_with_scratch(&topo, &hw, &flow_set(seed ^ 0x5DEECE66D, 24), &cfg, &rt, &mut scratch);
        simulate_with_scratch(
            &topo, &hw, &flow_set(seed.wrapping_add(7), 3),
            &SimConfig { packet_bytes: 64 }, &rt, &mut scratch,
        );
        let dirty = simulate_with_scratch(&topo, &hw, &flows, &cfg, &rt, &mut scratch);
        prop_assert_eq!(&dirty, &expect);
    }

    /// Transient link blackouts: the faulty engine reproduces the
    /// reference's whole `SimReport` — fault wait and deferral counts
    /// included — on random topologies, flows, packet sizes and window
    /// sets, fresh scratch and dirty scratch alike.
    #[test]
    fn faulty_engine_matches_reference_under_blackouts(
        topo_idx in 0usize..3,
        seed in 0u64..10_000,
        n in 0usize..30,
        pb_idx in 0usize..4,
        n_windows in 0usize..12,
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams::default();
        let cfg = SimConfig { packet_bytes: [64u32, 256, 1024, 4096][pb_idx] };
        let rt = RouteTable::build(&topo, &hw);
        let flows = flow_set(seed, n);
        let windows = window_set(&topo, &rt, &flows, &cfg, seed, n_windows);

        let expect = reference_simulate(&topo, &hw, &flows, &cfg, &rt, &windows);
        let (fresh, dirty) = faulty_runs(&topo, &hw, &flows, &cfg, &rt, &windows, seed);
        prop_assert_eq!(&fresh, &expect);
        prop_assert_eq!(&dirty, &expect);
    }

    /// A degenerate hardware config (`router_pipeline_cycles == 0`):
    /// first-link headers land in the cycle their NI grant starts, and
    /// the engine's closed-form NI chain must still match the reference
    /// exactly.
    #[test]
    fn zero_router_pipeline_matches_reference(
        topo_idx in 0usize..3,
        seed in 0u64..10_000,
        n in 0usize..20,
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams { router_pipeline_cycles: 0, ..HwParams::default() };
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let flows = flow_set(seed, n);
        let expect = reference_simulate(&topo, &hw, &flows, &cfg, &rt, &[]);
        prop_assert_eq!(simulate_with_table(&topo, &hw, &flows, &cfg, &rt), expect);
    }
}

/// One scratch threaded through a long mixed sequence of runs —
/// alternating topologies, packet sizes, and flow sets — agrees with the
/// reference at every step.
#[test]
fn scratch_sequence_tracks_reference() {
    let hw = HwParams::default();
    let mut scratch = SimScratch::new();
    for step in 0..12u64 {
        let topo = arb_topology(step as usize);
        let rt = RouteTable::build(&topo, &hw);
        let cfg = SimConfig {
            packet_bytes: [128u32, 1024, 4096][step as usize % 3],
        };
        let flows = flow_set(step * 977, 4 + (step as usize * 5) % 26);
        let expect = reference_simulate(&topo, &hw, &flows, &cfg, &rt, &[]);
        let got = simulate_with_scratch(&topo, &hw, &flows, &cfg, &rt, &mut scratch);
        assert_eq!(got, expect, "diverged at step {step}");
    }
}

/// Blackouts on the first link out of a source with many queued packets,
/// back to back: several headers stall on the merged `[10, 90)` window,
/// the ones arriving a cycle later stall on `[91, 150)`, and the engine
/// still matches the reference bit for bit. Node 0's second flow leaves
/// on another link and then shares a column with node 12's long flow, so
/// its packets' timing against that flow is observable: releasing them
/// from the NI late (after a deferral instead of at the first arrival)
/// would reorder the column's FIFO.
#[test]
fn first_link_blackouts_of_a_busy_source_match_reference() {
    let topo = mesh2d(6, 6).unwrap();
    let hw = HwParams::default();
    let cfg = SimConfig { packet_bytes: 256 };
    let rt = RouteTable::build(&topo, &hw);
    let flows = [
        Flow::new(NodeId(0), NodeId(5), 4096),
        Flow::new(NodeId(0), NodeId(30), 4096),
        Flow::new(NodeId(12), NodeId(30), 8192),
        Flow::new(NodeId(6), NodeId(2), 2048),
    ];
    let first_link = rt.path(&topo, NodeId(0), NodeId(5))[0];
    assert_ne!(first_link, rt.path(&topo, NodeId(0), NodeId(30))[0]);
    let windows = [
        (first_link, 10, 60),
        (first_link, 60, 90),
        (first_link, 91, 150),
        (first_link, 400, 401),
    ];
    let expect = reference_simulate(&topo, &hw, &flows, &cfg, &rt, &windows);
    assert!(
        expect.faulted_traversals >= 10,
        "the windows must bite: {} deferrals",
        expect.faulted_traversals
    );
    assert!(expect.total_fault_wait_cycles > 0);
    let (fresh, dirty) = faulty_runs(&topo, &hw, &flows, &cfg, &rt, &windows, 11);
    assert_eq!(fresh, expect);
    assert_eq!(dirty, expect);
}
