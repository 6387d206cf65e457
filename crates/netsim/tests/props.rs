//! Property-based tests of routing and simulation invariants across
//! random topologies and traffic.

use netsim::{analyze, simulate, EventQueue, Flow, RouteTable, SimConfig};
use proptest::prelude::*;
use topology::{floret, kite, mesh2d, HwParams, NodeId};

fn arb_topology(idx: usize) -> topology::Topology {
    match idx % 3 {
        0 => mesh2d(6, 6).unwrap(),
        1 => kite(6, 6).unwrap(),
        _ => floret(6, 6, 4).unwrap().0,
    }
}

/// Naive event-queue oracle: an unsorted `Vec` whose `pop` scans for
/// the minimum `(time, key)` pair. Shares no code with the heap.
#[derive(Default)]
struct MinScanOracle(Vec<(u64, u64)>);

impl MinScanOracle {
    fn push(&mut self, time: u64, key: u64) {
        self.0.push((time, key));
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn min_index(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, ev) in self.0.iter().enumerate() {
            if best.is_none_or(|b| *ev < self.0[b]) {
                best = Some(i);
            }
        }
        best
    }

    fn peek(&self) -> Option<(u64, u64)> {
        self.min_index().map(|i| self.0[i])
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.min_index().map(|i| self.0.swap_remove(i))
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

    /// The event queue must dequeue random event sets in exactly
    /// ascending `(time, key)` order, checked against the naive oracle;
    /// times cluster so duplicates and ties are common.
    #[test]
    fn event_queue_matches_min_scan_oracle_order(
        raw in proptest::collection::vec(0u64..u64::MAX, 0..400),
    ) {
        // Derive (time, key) pairs from one random word each: times
        // cluster (mod 4096) so duplicates and ties are common.
        let events: Vec<(u64, u64)> = raw
            .iter()
            .map(|r| ((r >> 12) % 4096, r & 0xFFF))
            .collect();

        let mut oracle = MinScanOracle::default();
        let mut q = EventQueue::new();
        for &(t, k) in &events {
            oracle.push(t, k);
            q.push(t, k);
        }
        while let Some(expect) = oracle.pop() {
            prop_assert_eq!(q.pop(), Some(expect));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }

    /// Random interleavings of push, peek and pop agree with the naive
    /// oracle step by step: `peek` always names the next `pop`, never
    /// removes it, and pushes behind the last popped time still surface
    /// first.
    #[test]
    fn event_queue_peek_and_pop_interleave_like_min_scan_oracle(
        ops in proptest::collection::vec(0u64..u64::MAX, 0..400),
    ) {
        let mut oracle = MinScanOracle::default();
        let mut q = EventQueue::new();
        let mut last_popped = 0u64;
        for &op in &ops {
            match op % 5 {
                // Pushes dominate so the queue grows; times cluster so
                // ties are common.
                0 | 1 => {
                    let ev = ((op >> 12) % 4096, (op >> 3) & 0x3FF);
                    oracle.push(ev.0, ev.1);
                    q.push(ev.0, ev.1);
                }
                // A push behind the last pop: at or before its time.
                2 => {
                    let ev = (last_popped - (op >> 12) % (last_popped + 1), (op >> 3) & 0x3FF);
                    oracle.push(ev.0, ev.1);
                    q.push(ev.0, ev.1);
                }
                3 => {
                    prop_assert_eq!(q.peek(), oracle.peek());
                    prop_assert_eq!(q.len(), oracle.len());
                }
                _ => {
                    let expect = oracle.pop();
                    prop_assert_eq!(q.pop(), expect);
                    if let Some((t, _)) = expect {
                        last_popped = t;
                    }
                }
            }
        }
        while let Some(expect) = oracle.pop() {
            prop_assert_eq!(q.peek(), Some(expect));
            prop_assert_eq!(q.pop(), Some(expect));
        }
        prop_assert_eq!(q.peek(), None);
        prop_assert!(q.is_empty());
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
