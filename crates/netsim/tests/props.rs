//! Property-based tests of routing and simulation invariants across
//! random topologies and traffic.

use netsim::{analyze, simulate, CalendarQueue, Flow, RouteTable, SimConfig};
use proptest::prelude::*;
use topology::{floret, kite, mesh2d, HwParams, NodeId};

fn arb_topology(idx: usize) -> topology::Topology {
    match idx % 3 {
        0 => mesh2d(6, 6).unwrap(),
        1 => kite(6, 6).unwrap(),
        _ => floret(6, 6, 4).unwrap().0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn routes_terminate_and_reach(topo_idx in 0usize..3, s in 0u32..36, d in 0u32..36) {
        let topo = arb_topology(topo_idx);
        let rt = RouteTable::build(&topo, &HwParams::default());
        let path = rt.path(&topo, NodeId(s), NodeId(d));
        let mut at = NodeId(s);
        for lid in &path {
            at = topo.link(*lid).opposite(at);
        }
        prop_assert_eq!(at, NodeId(d));
        prop_assert!(path.len() <= topo.node_count());
    }

    #[test]
    fn des_dominates_bound_on_any_topology(
        topo_idx in 0usize..3,
        seed in 0u64..500,
        n in 1usize..25,
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams::default();
        let flows: Vec<Flow> = (0..n)
            .map(|i| {
                let s = ((seed as usize + i * 11) % 36) as u32;
                let d = ((seed as usize + i * 17 + 3) % 36) as u32;
                Flow::new(NodeId(s), NodeId(d), 32 + (seed + i as u64) % 2048)
            })
            .collect();
        let ana = analyze(&topo, &hw, &flows);
        let des = simulate(&topo, &hw, &flows, &SimConfig::default());
        prop_assert!(des.makespan_cycles >= ana.makespan_cycles);
        prop_assert!(des.flit_hops == ana.flit_hops);
    }

    /// The calendar queue must dequeue random event sets in exactly the
    /// order a binary min-heap over `(time, key)` would — the event-loop
    /// swap is only sound if the two disciplines agree on every tie.
    #[test]
    fn calendar_queue_matches_binary_heap_order(
        raw in proptest::collection::vec(0u64..u64::MAX, 0..400),
        width in 1u64..64,
    ) {
        // Derive (time, key) pairs from one random word each: times
        // cluster (mod 4096) so duplicates and ties are common.
        let events: Vec<(u64, u64)> = raw
            .iter()
            .map(|r| ((r >> 12) % 4096, r & 0xFFF))
            .collect();

        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            events.iter().map(|&e| std::cmp::Reverse(e)).collect();
        let mut cal = CalendarQueue::new(width);
        for &(t, k) in &events {
            cal.push(t, k);
        }
        while let Some(std::cmp::Reverse(expect)) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert_eq!(cal.pop(), None);
        prop_assert!(cal.is_empty());
    }

    /// Random interleavings of push, peek and pop agree with a binary
    /// min-heap step by step: `peek` always names the next `pop`, never
    /// removes it, and pushes into the past after a peek still surface
    /// first.
    #[test]
    fn calendar_queue_peek_and_pop_interleave_like_binary_heap(
        ops in proptest::collection::vec(0u64..u64::MAX, 0..400),
        width in 1u64..64,
    ) {
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            std::collections::BinaryHeap::new();
        let mut cal = CalendarQueue::new(width);
        for &op in &ops {
            match op % 4 {
                // Pushes dominate so the queue grows through several
                // doublings; times cluster so ties are common.
                0 | 1 => {
                    let ev = ((op >> 12) % 4096, (op >> 2) & 0x3FF);
                    heap.push(std::cmp::Reverse(ev));
                    cal.push(ev.0, ev.1);
                }
                2 => {
                    let expect = heap.peek().map(|r| r.0);
                    prop_assert_eq!(cal.peek(), expect);
                    prop_assert_eq!(cal.len(), heap.len());
                }
                _ => prop_assert_eq!(cal.pop(), heap.pop().map(|r| r.0)),
            }
        }
        while let Some(std::cmp::Reverse(expect)) = heap.pop() {
            prop_assert_eq!(cal.peek(), Some(expect));
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert_eq!(cal.peek(), None);
        prop_assert!(cal.is_empty());
    }

    #[test]
    fn energy_is_additive_over_flows(seed in 0u64..200) {
        let topo = mesh2d(5, 5).unwrap();
        let hw = HwParams::default();
        let f1 = Flow::new(NodeId((seed % 25) as u32), NodeId(((seed + 7) % 25) as u32), 777);
        let f2 = Flow::new(NodeId(((seed + 3) % 25) as u32), NodeId(((seed + 11) % 25) as u32), 1234);
        let e1 = analyze(&topo, &hw, &[f1]).total_energy_pj;
        let e2 = analyze(&topo, &hw, &[f2]).total_energy_pj;
        let both = analyze(&topo, &hw, &[f1, f2]).total_energy_pj;
        prop_assert!((both - (e1 + e2)).abs() < 1e-6);
    }
}
