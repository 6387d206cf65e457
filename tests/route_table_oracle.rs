//! Differential oracle for `netsim::RouteTable`.
//!
//! The oracle is a reference route builder on the public topology API:
//! one `f64` Dijkstra per destination with a `(cost, node id)` min-heap
//! and strict `<` relaxation, dead links priced at infinity.
//! `RouteTable::build` and `RouteTable::build_excluding` must give
//! exactly the same next hop (and the same `None`s) for every ordered
//! node pair, on every paper NoI generator at several sizes, on the 3D
//! SFC stack, and under seeded random dead-link sets. Any change to the pop order or the tie-break
//! changes some parent link and fails here.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dataflow_pim::netsim::RouteTable;
use dataflow_pim::topology::{self, HwParams, Link, LinkId, NodeId, Topology};
use dataflow_pim::NoiArch;

/// Reference per-destination Dijkstra: `(cost, parent link)` per node,
/// the parent link being the next hop toward `src`.
fn oracle_dijkstra<F>(topo: &Topology, src: NodeId, mut link_cost: F) -> Vec<(f64, Option<LinkId>)>
where
    F: FnMut(&Link) -> f64,
{
    #[derive(PartialEq)]
    struct Entry(f64, NodeId);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on cost; tie-break on node id for determinism.
            other
                .0
                .partial_cmp(&self.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.1.cmp(&self.1))
        }
    }

    let mut out: Vec<(f64, Option<LinkId>)> = vec![(f64::INFINITY, None); topo.node_count()];
    out[src.index()].0 = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, src));
    while let Some(Entry(cost, u)) = heap.pop() {
        if cost > out[u.index()].0 {
            continue;
        }
        for &(v, lid) in topo.neighbors(u) {
            let next = cost + link_cost(topo.link(lid));
            if next < out[v.index()].0 {
                out[v.index()] = (next, Some(lid));
                heap.push(Entry(next, v));
            }
        }
    }
    out
}

/// Reference table: `[dst][node]` next hops, dead links priced at
/// infinity and infinite-cost entries left unroutable.
fn oracle_table(topo: &Topology, hw: &HwParams, dead: &[LinkId]) -> Vec<Vec<Option<LinkId>>> {
    let cost = |l: &Link| {
        if dead.contains(&l.id) {
            f64::INFINITY
        } else {
            hw.hop_cycles(l.length_hops) as f64
        }
    };
    (0..topo.node_count())
        .map(|dst| {
            oracle_dijkstra(topo, node(dst), cost)
                .into_iter()
                .map(|(c, parent)| if c.is_finite() { parent } else { None })
                .collect()
        })
        .collect()
}

fn node(i: usize) -> NodeId {
    NodeId(topology::narrow::u32_idx(i))
}

/// Asserts `rt` agrees with the oracle on every ordered pair.
fn assert_matches(what: &str, topo: &Topology, rt: &RouteTable, oracle: &[Vec<Option<LinkId>>]) {
    for (dst, row) in oracle.iter().enumerate() {
        for (at, want) in row.iter().enumerate() {
            assert_eq!(
                rt.next_link(node(at), node(dst)),
                *want,
                "{what} ({}): next hop {at} -> {dst}",
                topo.name()
            );
        }
    }
}

/// The paper's hardware model, plus one where a 3-hop wire costs exactly
/// two 1-hop links, so long and short routes tie and the tie-break
/// decides the table.
fn hw_models() -> [HwParams; 2] {
    let tied = HwParams {
        router_pipeline_cycles: 1,
        wire_cycles_per_hop: 1,
        ..HwParams::default()
    };
    [HwParams::default(), tied]
}

/// Every paper NoI at the 10x10 paper size, one other square size and
/// one non-square size.
fn paper_topologies() -> Vec<Topology> {
    let mut topos = Vec::new();
    for (w, h) in [(10, 10), (8, 8), (12, 7)] {
        for arch in NoiArch::all() {
            let (t, _) = arch
                .build(w, h)
                .unwrap_or_else(|e| panic!("{} {w}x{h}: {e}", arch.name()));
            topos.push(t);
        }
    }
    topos
}

#[test]
fn full_tables_match_the_oracle_on_every_generator() {
    let mut topos = paper_topologies();
    topos.push(topology::sfc3d(5, 5, 4).expect("sfc3d builds").0);
    for topo in &topos {
        for hw in &hw_models() {
            let oracle = oracle_table(topo, hw, &[]);
            assert_matches("build", topo, &RouteTable::build(topo, hw), &oracle);
            assert_matches(
                "build_excluding(&[])",
                topo,
                &RouteTable::build_excluding(topo, hw, &[]),
                &oracle,
            );
        }
    }
}

/// SplitMix64: a dependency-free seeded stream for picking dead links.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn detour_tables_match_the_oracle_under_random_dead_links() {
    let hw = HwParams::default();
    let mut topos = paper_topologies();
    topos.push(topology::sfc3d(5, 5, 4).expect("sfc3d builds").0);
    let mut unroutable = 0usize;
    for (ti, topo) in topos.iter().enumerate() {
        let links = topo.link_count();
        for (si, percent) in [5u64, 15, 40].into_iter().enumerate() {
            let mut rng = SplitMix(1 + 97 * ti as u64 + si as u64);
            let dead: Vec<LinkId> = (0..links)
                .filter(|_| rng.next() % 100 < percent)
                .map(|l| LinkId(topology::narrow::u32_idx(l)))
                .collect();
            let oracle = oracle_table(topo, &hw, &dead);
            unroutable += oracle.iter().flatten().filter(|h| h.is_none()).count();
            let rt = RouteTable::build_excluding(topo, &hw, &dead);
            assert_matches("build_excluding", topo, &rt, &oracle);
        }
    }
    // The 40% sets disconnect some pairs, so `None` beyond the diagonal
    // is exercised too.
    let diagonal: usize = topos.iter().map(|t| 3 * t.node_count()).sum();
    assert!(unroutable > diagonal, "no random dead set cut any pair");
}

#[test]
fn an_isolated_node_is_unroutable_in_both_tables() {
    let hw = HwParams::default();
    for arch in NoiArch::all() {
        let (topo, _) = arch.build(10, 10).expect("paper archs build");
        // Isolate the best-connected node so its cut is widest.
        let victim = (0..topo.node_count())
            .map(node)
            .max_by_key(|&n| (topo.degree(n), std::cmp::Reverse(n)))
            .expect("non-empty topology");
        let dead: Vec<LinkId> = topo.neighbors(victim).iter().map(|&(_, l)| l).collect();
        let oracle = oracle_table(&topo, &hw, &dead);
        let rt = RouteTable::build_excluding(&topo, &hw, &dead);
        assert_matches("isolated node", &topo, &rt, &oracle);
        for other in (0..topo.node_count()).map(node).filter(|&o| o != victim) {
            assert_eq!(rt.next_link(victim, other), None, "{}", arch.name());
            assert_eq!(rt.next_link(other, victim), None, "{}", arch.name());
            assert_eq!(oracle[other.index()][victim.index()], None);
            assert_eq!(oracle[victim.index()][other.index()], None);
        }
    }
}

#[test]
fn every_route_costs_the_oracle_shortest_distance() {
    // Long Kite and SWAP links are charged their wire length, so a route
    // is optimal only if its summed hop cycles equal the Dijkstra cost.
    let hw = HwParams::default();
    for topo in paper_topologies() {
        let rt = RouteTable::build(&topo, &hw);
        let mut path = Vec::new();
        for dst in (0..topo.node_count()).map(node) {
            let best = oracle_dijkstra(&topo, dst, |l| hw.hop_cycles(l.length_hops) as f64);
            for src in (0..topo.node_count()).map(node) {
                rt.path_into(&topo, src, dst, &mut path);
                let cost: u64 = path
                    .iter()
                    .map(|&l| hw.hop_cycles(topo.link(l).length_hops))
                    .sum();
                assert_eq!(cost as f64, best[src.index()].0, "{}", topo.name());
            }
        }
    }
}

#[test]
fn the_oracle_prefers_short_links() {
    // Triangle whose direct a-c link is longer than a-m-c.
    let mut b = topology::TopologyBuilder::new(topology::TopologyKind::Custom, "tri");
    let a = b.add_node(topology::Coord::new2(0, 0));
    let m = b.add_node(topology::Coord::new2(1, 0));
    let c = b.add_node(topology::Coord::new2(2, 0));
    let am = b.add_link(a, m).unwrap();
    let mc = b.add_link(m, c).unwrap();
    b.add_link_with_length(a, c, 10).unwrap();
    let t = b.build().unwrap();
    let res = oracle_dijkstra(&t, c, |l| f64::from(l.length_hops));
    assert_eq!((res[a.index()].0, res[a.index()].1), (2.0, Some(am)));
    assert_eq!(res[m.index()].1, Some(mc));
}
