//! Equivalence of the bounded (A*) Yen's KSP in `teal_topology::paths`
//! with the Dijkstra-driven Yen's it replaced, which survives here,
//! verbatim, as the oracle.
//!
//! Each case asserts bitwise-identical output: every path's `nodes`,
//! `edges` and `weight.to_bits()`, and every `paths_on_edge` row. The
//! cases lean on exact weight ties (unit grids, integer weights), where a
//! search that does not reproduce Dijkstra's predecessor tie-break picks an
//! equal-weight alternative. The 1,024-node arm is `#[ignore]`d; run it in
//! release:
//!
//! ```text
//! cargo test -q -p teal-topology --release --test ksp_equivalence -- --ignored
//! ```

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teal_topology::{
    b4, generate, gravity_pairs, k_shortest_paths, large_wan, NodeId, Path, PathSet, TopoKind,
    Topology,
};

/// Candidate paths per demand, as in the paper.
const K: usize = 4;

/// The Dijkstra-driven Yen's KSP, copied verbatim from the implementation
/// the bounded search replaced.
mod oracle {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use teal_topology::{EdgeId, NodeId, Path, Topology};

    #[derive(PartialEq)]
    struct HeapEntry {
        dist: f64,
        node: NodeId,
    }

    impl Eq for HeapEntry {}
    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on distance; tie-break on node id for determinism.
            other
                .dist
                .partial_cmp(&self.dist)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Reusable scratch buffers for [`k_shortest_paths_with`] and the masked
    /// Dijkstra underneath it.
    ///
    /// Ban and mark sets are epoch-stamped arrays: membership is `stamp[i] ==
    /// epoch`, and "clearing" a set is one counter increment. Distance and
    /// predecessor arrays are reset via a touched-node list, so each Dijkstra run
    /// costs O(visited) to clean up rather than O(n). One scratch per worker
    /// thread makes the 1,000-node KSP precompute allocation-free in steady state.
    pub struct KspScratch {
        dist: Vec<f64>,
        prev: Vec<Option<(NodeId, EdgeId)>>,
        touched: Vec<NodeId>,
        heap: BinaryHeap<HeapEntry>,
        edge_ban: Vec<u32>,
        node_ban: Vec<u32>,
        node_mark: Vec<u32>,
        epoch: u32,
    }

    impl KspScratch {
        /// Scratch sized for `topo`. A scratch may be reused across topologies;
        /// buffers grow on demand.
        pub fn new(topo: &Topology) -> KspScratch {
            KspScratch {
                dist: vec![f64::INFINITY; topo.num_nodes()],
                prev: vec![None; topo.num_nodes()],
                touched: Vec::new(),
                heap: BinaryHeap::new(),
                edge_ban: vec![0; topo.num_edges()],
                node_ban: vec![0; topo.num_nodes()],
                node_mark: vec![0; topo.num_nodes()],
                epoch: 0,
            }
        }

        fn fit(&mut self, topo: &Topology) {
            let n = topo.num_nodes();
            if self.dist.len() < n {
                self.dist.resize(n, f64::INFINITY);
                self.prev.resize(n, None);
                self.node_ban.resize(n, 0);
                self.node_mark.resize(n, 0);
            }
            if self.edge_ban.len() < topo.num_edges() {
                self.edge_ban.resize(topo.num_edges(), 0);
            }
        }

        /// A fresh epoch value; stamps from prior epochs are implicitly cleared.
        fn next_epoch(&mut self) -> u32 {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                // Wrapped: zero every stamp so stale values cannot alias.
                self.edge_ban.iter_mut().for_each(|v| *v = 0);
                self.node_ban.iter_mut().for_each(|v| *v = 0);
                self.node_mark.iter_mut().for_each(|v| *v = 0);
                self.epoch = 1;
            }
            self.epoch
        }
    }

    /// Masked Dijkstra over scratch buffers. Edges/nodes whose stamp equals
    /// `ban_epoch` are masked out; passing a fresh epoch with nothing stamped
    /// runs unmasked. Semantics are identical to the `HashSet`-based
    /// [`dijkstra_masked`]: same relaxations, same heap tie-breaks.
    fn dijkstra_scratch(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        scratch: &mut KspScratch,
        ban_epoch: u32,
    ) -> Option<Path> {
        let KspScratch {
            dist,
            prev,
            touched,
            heap,
            edge_ban,
            node_ban,
            ..
        } = scratch;
        // Reset state touched by the previous run.
        for &v in touched.iter() {
            dist[v] = f64::INFINITY;
            prev[v] = None;
        }
        touched.clear();
        heap.clear();

        dist[src] = 0.0;
        touched.push(src);
        heap.push(HeapEntry {
            dist: 0.0,
            node: src,
        });
        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if node == dst {
                break;
            }
            if d > dist[node] {
                continue;
            }
            for &(next, eid) in topo.neighbors(node) {
                if edge_ban[eid] == ban_epoch || node_ban[next] == ban_epoch {
                    continue;
                }
                let nd = d + topo.edge(eid).weight;
                if nd < dist[next] {
                    if dist[next].is_infinite() {
                        touched.push(next);
                    }
                    dist[next] = nd;
                    prev[next] = Some((node, eid));
                    heap.push(HeapEntry {
                        dist: nd,
                        node: next,
                    });
                }
            }
        }
        if !dist[dst].is_finite() {
            return None;
        }
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, e) = prev[cur]?;
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path {
            nodes,
            edges,
            weight: dist[dst],
        })
    }

    /// Yen's algorithm: up to `k` loop-free shortest paths from `src` to `dst`.
    pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let mut scratch = KspScratch::new(topo);
        k_shortest_paths_with(topo, src, dst, k, &mut scratch)
    }

    /// [`k_shortest_paths`] with caller-provided scratch, so a precompute loop
    /// over many pairs reuses one set of buffers per worker thread.
    pub fn k_shortest_paths_with(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        k: usize,
        scratch: &mut KspScratch,
    ) -> Vec<Path> {
        scratch.fit(topo);
        let unmasked = scratch.next_epoch();
        let Some(first) = dijkstra_scratch(topo, src, dst, scratch, unmasked) else {
            return Vec::new();
        };
        let mut accepted: Vec<Path> = vec![first];
        // Candidate pool; may contain duplicates which we filter on insert.
        let mut candidates: Vec<Path> = Vec::new();

        while accepted.len() < k {
            let prev = accepted.last().unwrap().clone();
            for i in 0..prev.nodes.len() - 1 {
                let spur_node = prev.nodes[i];
                let root_nodes = &prev.nodes[..=i];
                let root_edges = &prev.edges[..i];
                let root_weight: f64 = root_edges.iter().map(|&e| topo.edge(e).weight).sum();

                let ban = scratch.next_epoch();
                // Ban the next edge of every accepted path sharing this root.
                for p in &accepted {
                    if p.nodes.len() > i && p.nodes[..=i] == *root_nodes {
                        if let Some(&e) = p.edges.get(i) {
                            scratch.edge_ban[e] = ban;
                        }
                    }
                }
                // Ban root nodes (except the spur) to keep paths simple.
                for &v in &root_nodes[..i] {
                    scratch.node_ban[v] = ban;
                }

                if let Some(spur) = dijkstra_scratch(topo, spur_node, dst, scratch, ban) {
                    // Simplicity check without materializing the joined path: the
                    // root and spur are each simple, so only cross-duplicates
                    // between them can occur.
                    let mark = scratch.next_epoch();
                    for &v in &root_nodes[..i] {
                        scratch.node_mark[v] = mark;
                    }
                    let simple = spur.nodes.iter().all(|&v| scratch.node_mark[v] != mark);
                    if simple {
                        let mut nodes = root_nodes[..i].to_vec();
                        nodes.extend_from_slice(&spur.nodes);
                        let mut edges = root_edges.to_vec();
                        edges.extend_from_slice(&spur.edges);
                        let cand = Path {
                            nodes,
                            edges,
                            weight: root_weight + spur.weight,
                        };
                        if !accepted.iter().any(|p| p.edges == cand.edges)
                            && !candidates.iter().any(|p| p.edges == cand.edges)
                        {
                            candidates.push(cand);
                        }
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            // Take the lightest candidate (tie-break by edge list for determinism).
            let best = candidates
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.weight
                        .partial_cmp(&b.weight)
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| a.edges.cmp(&b.edges))
                })
                .map(|(i, _)| i)
                .unwrap();
            accepted.push(candidates.swap_remove(best));
        }
        accepted
    }
}

/// The oracle's `PathSet` contents: per-pair Yen's padded cyclically to `k`.
fn oracle_paths(topo: &Topology, pairs: &[(NodeId, NodeId)], k: usize) -> Vec<Path> {
    let mut scratch = oracle::KspScratch::new(topo);
    let mut out = Vec::with_capacity(pairs.len() * k);
    for &(s, t) in pairs {
        let found = oracle::k_shortest_paths_with(topo, s, t, k, &mut scratch);
        assert!(!found.is_empty(), "oracle found no path {s}->{t}");
        out.extend((0..k).map(|j| found[j % found.len()].clone()));
    }
    out
}

fn assert_same_path(got: &Path, want: &Path, what: &str) {
    assert_eq!(got.nodes, want.nodes, "{what}: nodes differ");
    assert_eq!(got.edges, want.edges, "{what}: edges differ");
    assert_eq!(
        got.weight.to_bits(),
        want.weight.to_bits(),
        "{what}: weight bits differ ({} vs {})",
        got.weight,
        want.weight
    );
}

/// `PathSet::compute` must equal the oracle path for path, and its
/// edge→path rows must equal the rows derived from the oracle's paths.
fn assert_pathset_matches_oracle(topo: &Topology, pairs: &[(NodeId, NodeId)], k: usize) {
    let got = PathSet::compute(topo, pairs, k);
    let want = oracle_paths(topo, pairs, k);
    assert_eq!(got.num_paths(), want.len());
    for (i, (g, w)) in got.paths().iter().zip(&want).enumerate() {
        let (s, t) = pairs[i / k];
        assert_same_path(g, w, &format!("{} path {i} ({s}->{t})", topo.name()));
    }
    let mut rows = vec![Vec::new(); topo.num_edges()];
    for (p, path) in want.iter().enumerate() {
        for &e in &path.edges {
            rows[e].push(p as u32);
        }
    }
    for (e, row) in rows.iter().enumerate() {
        assert_eq!(
            got.paths_on_edge(e),
            &row[..],
            "{}: edge {e} row",
            topo.name()
        );
    }
}

/// `side`×`side` grid with unit weights: every pair has many exactly tied
/// shortest paths.
fn unit_grid(side: usize) -> Topology {
    let mut t = Topology::new(format!("grid-{side}"), side * side);
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                t.add_link(v, v + 1, 10.0, 1.0);
            }
            if r + 1 < side {
                t.add_link(v, v + side, 10.0, 1.0);
            }
        }
    }
    t
}

#[test]
fn b4_all_pairs() {
    let t = b4();
    assert_pathset_matches_oracle(&t, &t.all_pairs(), K);
}

#[test]
fn swan_030_all_pairs() {
    let t = generate(TopoKind::Swan, 0.3, 7);
    assert_pathset_matches_oracle(&t, &t.all_pairs(), K);
}

#[test]
fn large_wan_256_gravity_pairs() {
    let t = large_wan(256, 7);
    assert_pathset_matches_oracle(&t, &gravity_pairs(&t, 512, 7 ^ 1), K);
}

#[test]
fn unit_grid_all_pairs() {
    let t = unit_grid(12);
    assert_pathset_matches_oracle(&t, &t.all_pairs(), K);
}

#[test]
fn uscarrier_gravity_pairs() {
    let t = generate(TopoKind::UsCarrier, 1.0, 7);
    assert_pathset_matches_oracle(&t, &gravity_pairs(&t, 512, 7 ^ 1), K);
}

#[test]
fn kdl_gravity_pairs() {
    let t = generate(TopoKind::Kdl, 1.0, 7);
    assert_pathset_matches_oracle(&t, &gravity_pairs(&t, 256, 7 ^ 1), K);
}

#[test]
fn asn_gravity_pairs() {
    let t = generate(TopoKind::Asn, 1.0, 7);
    assert_pathset_matches_oracle(&t, &gravity_pairs(&t, 256, 7 ^ 1), K);
}

#[test]
#[ignore = "release-speed arm: 2,048 pairs on 1,024 nodes"]
fn large_wan_1024_gravity_pairs() {
    let t = large_wan(1024, 7);
    assert_pathset_matches_oracle(&t, &gravity_pairs(&t, 2048, 7 ^ 1), K);
}

/// Random digraph on `n` nodes with integer weights 1..=3. Edges are
/// one-way with some probability, so some pairs are unreachable.
fn random_digraph(seed: u64, n: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new("random", n);
    for _ in 0..n * 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let w = rng.gen_range(1..4usize) as f64;
        if a == b || t.find_edge(a, b).is_some() {
            continue;
        }
        t.add_directed_edge(a, b, 10.0, w);
        if rng.gen::<f64>() < 0.7 && t.find_edge(b, a).is_none() {
            t.add_directed_edge(b, a, 10.0, w);
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every ordered pair, reachable or not, for `k` in 1..=5: the
    /// per-pair API and `PathSet::compute` (over the reachable pairs) both
    /// match the oracle.
    #[test]
    fn random_integer_weight_graphs(seed in 0u64..1 << 48, n in 2usize..16, k in 1usize..6) {
        let t = random_digraph(seed, n);
        let mut reachable = Vec::new();
        for (s, d) in t.all_pairs() {
            let got = k_shortest_paths(&t, s, d, k);
            let want = oracle::k_shortest_paths(&t, s, d, k);
            prop_assert_eq!(got.len(), want.len(), "seed {} pair {}->{}", seed, s, d);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(&g.nodes, &w.nodes, "seed {} pair {}->{}", seed, s, d);
                prop_assert_eq!(&g.edges, &w.edges, "seed {} pair {}->{}", seed, s, d);
                prop_assert_eq!(g.weight.to_bits(), w.weight.to_bits());
            }
            if !want.is_empty() {
                reachable.push((s, d));
            }
        }
        assert_pathset_matches_oracle(&t, &reachable, k);
    }
}
