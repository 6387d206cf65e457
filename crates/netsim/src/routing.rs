//! Deterministic latency-aware shortest-path routing tables.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use topology::{HwParams, LinkId, NodeId, Topology};

/// Next-hop sentinel: no link (the node is the destination, or cannot
/// reach it without a dead link).
const NO_LINK: u32 = u32::MAX;

/// Precomputed routing: for every (current node, destination) pair, the
/// link to take next. Built from per-destination Dijkstra over the
/// latency cost of each link (router pipeline + wire delay), so long Kite
/// or SWAP links are charged their real wire length. Nodes settle in
/// (cost, node id) order, so equal-cost routes resolve the same way on
/// every run.
///
/// The table is one flat `n × n` array of link ids, row `dst`, column
/// `node`, with a `u32::MAX` sentinel where there is no next hop.
#[derive(Clone, Debug)]
pub struct RouteTable {
    nodes: usize,
    next: Vec<u32>, // [dst * nodes + node] -> link toward dst, or NO_LINK
}

impl RouteTable {
    /// Builds the table for a topology under a hardware model.
    pub fn build(topo: &Topology, hw: &HwParams) -> RouteTable {
        Self::build_excluding(topo, hw, &[])
    }

    /// Builds a detour table that never routes over `dead` links: the
    /// same per-destination Dijkstra with the dead links skipped, so
    /// surviving traffic re-routes around a fault region. Pairs that only
    /// connect through dead links end up unroutable
    /// ([`RouteTable::next_link`] returns `None` along the way); callers
    /// must drop flows touching disconnected nodes.
    pub fn build_excluding(topo: &Topology, hw: &HwParams, dead: &[LinkId]) -> RouteTable {
        // Each link's latency is priced once per build; a dead link has
        // no price and is never relaxed.
        let mut cost: Vec<Option<u64>> = topo
            .links()
            .iter()
            .map(|l| Some(hw.hop_cycles(l.length_hops)))
            .collect();
        for lid in dead {
            cost[lid.index()] = None;
        }
        let n = topo.node_count();
        let mut next = vec![NO_LINK; n * n];
        let mut dist = vec![u64::MAX; n];
        let mut heap = BinaryHeap::new();
        for (dst, row) in next.chunks_exact_mut(n.max(1)).enumerate() {
            // The shortest-path tree rooted at dst: a node's parent link
            // IS its next hop toward dst.
            dist.fill(u64::MAX);
            dist[dst] = 0;
            heap.push(Reverse(heap_key(0, dst)));
            while let Some(Reverse(key)) = heap.pop() {
                let (d, u) = split_key(key);
                if d > dist[u] {
                    continue;
                }
                for &(v, lid) in topo.neighbors(NodeId(topology::narrow::u32_idx(u))) {
                    let Some(w) = cost[lid.index()] else { continue };
                    let nd = d + w;
                    if nd < dist[v.index()] {
                        dist[v.index()] = nd;
                        row[v.index()] = lid.0;
                        heap.push(Reverse(heap_key(nd, v.index())));
                    }
                }
            }
        }
        RouteTable { nodes: n, next }
    }

    /// The link to take from `at` toward `dst`, or `None` when `at == dst`.
    pub fn next_link(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        match self.next[dst.index() * self.nodes + at.index()] {
            NO_LINK => None,
            lid => Some(LinkId(lid)),
        }
    }

    /// Full path from `src` to `dst` as a link sequence.
    ///
    /// # Panics
    ///
    /// Panics if the topology was disconnected (cannot happen for
    /// builder-validated topologies).
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        self.path_into(topo, src, dst, &mut links);
        links
    }

    /// [`RouteTable::path`] into a caller-owned scratch buffer (cleared
    /// first). The packet/flow setup loops call this once per flow with a
    /// single reused buffer, so steady-state path walking performs no
    /// heap allocation at all (pinned by the `path_alloc` test).
    ///
    /// # Panics
    ///
    /// Panics if the topology was disconnected (cannot happen for
    /// builder-validated topologies).
    pub fn path_into(&self, topo: &Topology, src: NodeId, dst: NodeId, links: &mut Vec<LinkId>) {
        links.clear();
        let mut at = src;
        while at != dst {
            let lid = self
                .next_link(at, dst)
                .expect("connected topology always routes");
            links.push(lid);
            at = topo.link(lid).opposite(at);
            debug_assert!(links.len() <= topo.node_count(), "routing loop");
        }
    }

    /// Hop count (links traversed) from `src` to `dst`, allocation-free.
    pub fn hops(&self, topo: &Topology, src: NodeId, dst: NodeId) -> usize {
        let mut hops = 0;
        let mut at = src;
        while at != dst {
            let lid = self
                .next_link(at, dst)
                .expect("connected topology always routes");
            at = topo.link(lid).opposite(at);
            hops += 1;
            debug_assert!(hops <= topo.node_count(), "routing loop");
        }
        hops
    }
}

/// Packs a tentative distance and a node into one heap key, distance
/// in the high half, so integer order is (distance, node id) order and
/// a heap comparison is one integer compare. Integer distances sum
/// exactly, so the pop order (and with it every parent link) is the one
/// an exact `(cost, node id)` comparator gives.
///
/// # Panics
///
/// Panics if the distance outgrows 32 bits (a route of over 2^32
/// cycles; hop costs are a few cycles each).
fn heap_key(dist: u64, node: usize) -> u64 {
    let dist = u32::try_from(dist)
        .unwrap_or_else(|_| panic!("route cost {dist} exceeds the 32-bit heap key"));
    (u64::from(dist) << 32) | u64::from(topology::narrow::u32_idx(node))
}

/// Inverse of [`heap_key`]: `(distance, node index)`.
fn split_key(key: u64) -> (u64, usize) {
    (key >> 32, (key & u64::from(u32::MAX)) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{floret, kite, mesh2d};

    #[test]
    fn mesh_routes_are_manhattan() {
        let topo = mesh2d(5, 5).unwrap();
        let hw = HwParams::default();
        let rt = RouteTable::build(&topo, &hw);
        let src = topo.node_at(topology::Coord::new2(0, 0)).unwrap();
        let dst = topo.node_at(topology::Coord::new2(4, 3)).unwrap();
        assert_eq!(rt.hops(&topo, src, dst), 7);
        assert!(rt.next_link(dst, dst).is_none());
    }

    #[test]
    fn paths_terminate_everywhere() {
        for topo in [
            mesh2d(6, 6).unwrap(),
            kite(6, 6).unwrap(),
            floret(6, 6, 4).unwrap().0,
        ] {
            let rt = RouteTable::build(&topo, &HwParams::default());
            for s in 0..topo.node_count() {
                for d in 0..topo.node_count() {
                    let p = rt.path(
                        &topo,
                        NodeId(topology::narrow::u32_idx(s)),
                        NodeId(topology::narrow::u32_idx(d)),
                    );
                    if s == d {
                        assert!(p.is_empty());
                    } else {
                        assert!(!p.is_empty());
                        // Path must actually end at d.
                        let mut at = NodeId(topology::narrow::u32_idx(s));
                        for lid in &p {
                            at = topo.link(*lid).opposite(at);
                        }
                        assert_eq!(at, NodeId(topology::narrow::u32_idx(d)));
                    }
                }
            }
        }
    }

    #[test]
    fn detour_table_avoids_dead_links() {
        let topo = mesh2d(5, 5).unwrap();
        let hw = HwParams::default();
        let full = RouteTable::build(&topo, &hw);
        let src = topo.node_at(topology::Coord::new2(0, 0)).unwrap();
        let dst = topo.node_at(topology::Coord::new2(4, 0)).unwrap();
        // Kill every link on the direct path; the detour must route
        // around them and never traverse a dead link.
        let dead = full.path(&topo, src, dst);
        let detour = RouteTable::build_excluding(&topo, &hw, &dead);
        let path = detour.path(&topo, src, dst);
        assert!(!path.is_empty());
        for lid in &path {
            assert!(!dead.contains(lid), "detour used dead link {lid:?}");
        }
        assert!(
            path.len() >= full.hops(&topo, src, dst),
            "a detour can never be shorter than the direct route"
        );
        // With no dead links the detour builder reproduces the full table.
        let rebuilt = RouteTable::build_excluding(&topo, &hw, &[]);
        for s in 0..topo.node_count() {
            for d in 0..topo.node_count() {
                let (s, d) = (
                    NodeId(topology::narrow::u32_idx(s)),
                    NodeId(topology::narrow::u32_idx(d)),
                );
                assert_eq!(full.hops(&topo, s, d), rebuilt.hops(&topo, s, d));
            }
        }
    }

    #[test]
    fn fully_cut_node_is_unroutable_not_looping() {
        let topo = mesh2d(3, 3).unwrap();
        let hw = HwParams::default();
        let corner = topo.node_at(topology::Coord::new2(0, 0)).unwrap();
        // Cut every link touching the corner node.
        let dead: Vec<LinkId> = topo
            .links()
            .iter()
            .filter(|l| l.a == corner || l.b == corner)
            .map(|l| l.id)
            .collect();
        assert_eq!(dead.len(), 2);
        let detour = RouteTable::build_excluding(&topo, &hw, &dead);
        let far = topo.node_at(topology::Coord::new2(2, 2)).unwrap();
        assert_eq!(detour.next_link(corner, far), None);
        assert_eq!(detour.next_link(far, corner), None);
        // Surviving pairs still route.
        let mid = topo.node_at(topology::Coord::new2(1, 1)).unwrap();
        assert!(detour.next_link(mid, far).is_some());
    }

    #[test]
    fn heap_keys_order_by_distance_then_node() {
        assert!(heap_key(5, 9) < heap_key(6, 0));
        assert!(heap_key(5, 1) < heap_key(5, 2));
        assert_eq!(split_key(heap_key(7, 42)), (7, 42));
        let top = u64::from(u32::MAX);
        assert_eq!(split_key(heap_key(top, 3)), (top, 3));
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit heap key")]
    fn oversized_route_costs_are_refused() {
        heap_key(1 << 32, 0);
    }

    #[test]
    fn routes_prefer_short_links() {
        // Triangle whose direct a-c link is longer than a-m-c: 2 x 5
        // cycles through m beat the 14-cycle long wire.
        let mut b = topology::TopologyBuilder::new(topology::TopologyKind::Custom, "tri");
        let a = b.add_node(topology::Coord::new2(0, 0));
        let m = b.add_node(topology::Coord::new2(1, 0));
        let c = b.add_node(topology::Coord::new2(2, 0));
        let am = b.add_link(a, m).unwrap();
        let mc = b.add_link(m, c).unwrap();
        b.add_link_with_length(a, c, 10).unwrap();
        let topo = b.build().unwrap();
        let rt = RouteTable::build(&topo, &HwParams::default());
        assert_eq!(rt.path(&topo, a, c), vec![am, mc]);
        assert_eq!(rt.path(&topo, c, a), vec![mc, am]);
    }

    #[test]
    fn kite_detours_never_cross_a_dead_link() {
        // Kite's 2-hop links make detours non-trivial: kill every fifth
        // link and walk every pair the detour table still connects.
        let topo = kite(8, 8).unwrap();
        let hw = HwParams::default();
        let dead: Vec<LinkId> = topo.links().iter().map(|l| l.id).step_by(5).collect();
        let detour = RouteTable::build_excluding(&topo, &hw, &dead);
        let mut path = Vec::new();
        let mut walked = 0usize;
        for s in 0..topo.node_count() {
            for d in 0..topo.node_count() {
                let (s, d) = (
                    NodeId(topology::narrow::u32_idx(s)),
                    NodeId(topology::narrow::u32_idx(d)),
                );
                if s == d || detour.next_link(s, d).is_none() {
                    continue;
                }
                detour.path_into(&topo, s, d, &mut path);
                for lid in &path {
                    assert!(!dead.contains(lid), "{s:?}->{d:?} used dead link {lid:?}");
                }
                walked += 1;
            }
        }
        assert!(walked > 0, "the dead set cut every pair");
    }
}
