//! Shortest paths and the precomputed candidate-path sets used by the path
//! formulation of TE.
//!
//! Production TE (and the paper, §2) splits each demand across 4 precomputed
//! shortest paths. [`PathSet::compute`] runs Yen's k-shortest-simple-paths
//! algorithm per demand pair, in parallel across pairs; if a pair admits
//! fewer than `k` simple paths, the available paths are repeated cyclically
//! so every demand has exactly `k` slots (split ratios on duplicates simply
//! add on the same physical path).
//!
//! Three details matter at paper scale (754–1,739 nodes, §6):
//!
//! * Every shortest-path query is one bounded best-first search. Yen's loop
//!   runs a masked search per spur node (about a dozen per pair at `k = 4`),
//!   and each is an A* search aimed at the destination: its bound `h(v)` is
//!   the unmasked distance from `v` to the destination, computed once per
//!   destination by a reverse Dijkstra over in-edges. Yen's bans only remove
//!   edges and nodes, so `h` stays a consistent lower bound for every spur
//!   search of that destination. [`dijkstra`] is the same search with
//!   `h ≡ 0`. [`PathSet::compute`] visits pairs grouped by destination so
//!   each worker computes each bound once into a single buffer.
//! * The search returns exactly the path plain Dijkstra (ties popped by
//!   node id) would: `prev[v]` is the tight predecessor
//!   (`g(u) + w(u, v) == g(v)`) with the least `(g(u), u)`, and the search
//!   keeps popping until the heap top exceeds `g(dst)·(1 + 1e-9)`, so every
//!   tight predecessor has been expanded. Edge weights are finite and
//!   positive ([`Topology::add_directed_edge`] checks), so `g` strictly
//!   increases along a predecessor chain and the chain cannot cycle.
//!   [`KspScratch`] keeps the search arrays, the heap, the bound and
//!   epoch-stamped ban/mark arrays alive across searches, so the precompute
//!   is allocation-free per spur.
//! * The edge→path incidence is flattened at construction into a CSR-style
//!   offsets+indices pair ([`PathSet::paths_on_edge`]), replacing the old
//!   `Vec<Vec<usize>>` that every solver rebuilt per call.

use crate::graph::{Edge, EdgeId, NodeId, Topology};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// A simple path through the topology.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Visited nodes, `nodes[0]` = source, last = destination.
    pub nodes: Vec<NodeId>,
    /// Directed edge ids, `edges.len() == nodes.len() - 1`.
    pub edges: Vec<EdgeId>,
    /// Total routing weight (latency proxy).
    pub weight: f64,
}

impl Path {
    /// Number of hops (edges).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for the degenerate empty path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// True when no node repeats.
    pub fn is_simple(&self) -> bool {
        let set: HashSet<_> = self.nodes.iter().collect();
        set.len() == self.nodes.len()
    }
}

/// Relative slack on the search's stopping rule, so rounding in `g + h`
/// never stops it before a tight predecessor of the goal is expanded.
const TIE_SLACK: f64 = 1e-9;

#[derive(PartialEq)]
struct HeapEntry {
    /// Priority: `g + h` in the forward search, `g` in the reverse one.
    key: f64,
    /// Distance from the search origin when pushed.
    g: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on key; tie-break on node id for determinism.
        other
            .key
            .partial_cmp(&self.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable scratch buffers for [`k_shortest_paths_with`] and the bounded
/// search underneath it.
///
/// Ban and mark sets are epoch-stamped arrays: membership is `stamp[i] ==
/// epoch`, and "clearing" a set is one counter increment. Distance and
/// predecessor arrays are reset via a touched-node list, so each search
/// costs O(visited) to clean up rather than O(n). `bound` holds the search's
/// lower bound on each node's distance to the current destination, computed
/// over the in-edge index `in_edges`/`in_off`. One scratch per worker thread
/// makes the 1,000-node KSP precompute allocation-free in steady state.
pub struct KspScratch {
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    touched: Vec<NodeId>,
    heap: BinaryHeap<HeapEntry>,
    bound: Vec<f64>,
    /// Edge ids grouped by head node: the in-edges of `v` are
    /// `in_edges[in_off[v]..in_off[v + 1]]`.
    in_edges: Vec<EdgeId>,
    in_off: Vec<usize>,
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
            bound: vec![0.0; topo.num_nodes()],
            in_edges: Vec::new(),
            in_off: Vec::new(),
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
            self.bound.resize(n, 0.0);
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

    /// Index `topo`'s edges by head node for [`bound_to`](Self::bound_to).
    fn index_in_edges(&mut self, topo: &Topology) {
        self.fit(topo);
        let KspScratch {
            in_edges, in_off, ..
        } = self;
        // Counting sort: count per head, inclusive prefix sums (block ends),
        // then fill backwards so each block ends ascending at its start.
        in_off.clear();
        in_off.resize(topo.num_nodes() + 1, 0);
        for e in topo.edges() {
            in_off[e.dst] += 1;
        }
        for v in 1..in_off.len() {
            in_off[v] += in_off[v - 1];
        }
        in_edges.clear();
        in_edges.resize(topo.num_edges(), 0);
        for (eid, e) in topo.edges().iter().enumerate().rev() {
            in_off[e.dst] -= 1;
            in_edges[in_off[e.dst]] = eid;
        }
    }

    /// Set `bound` to every node's unmasked distance to `dst`: one reverse
    /// Dijkstra over the in-edge index, which must be `topo`'s
    /// ([`index_in_edges`](Self::index_in_edges)). Nodes that cannot reach
    /// `dst` get `+inf`.
    fn bound_to(&mut self, topo: &Topology, dst: NodeId) {
        let KspScratch {
            bound,
            heap,
            in_edges,
            in_off,
            ..
        } = self;
        bound.fill(f64::INFINITY);
        heap.clear();
        bound[dst] = 0.0;
        heap.push(HeapEntry {
            key: 0.0,
            g: 0.0,
            node: dst,
        });
        while let Some(HeapEntry { g, node, .. }) = heap.pop() {
            if g > bound[node] {
                continue;
            }
            for &eid in &in_edges[in_off[node]..in_off[node + 1]] {
                let Edge {
                    src: from, weight, ..
                } = *topo.edge(eid);
                let nd = g + weight;
                if nd < bound[from] {
                    bound[from] = nd;
                    heap.push(HeapEntry {
                        key: nd,
                        g: nd,
                        node: from,
                    });
                }
            }
        }
    }
}

/// Bounded best-first search from `src` to `dst` over scratch buffers, with
/// `scratch.bound` as the lower bound on each node's distance to `dst`.
/// Edges/nodes whose stamp equals `ban_epoch` are masked out; passing a
/// fresh epoch with nothing stamped runs unmasked. Returns the path plain
/// Dijkstra would (see the module docs for the tie rule).
fn bounded_search(
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
        bound,
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
    if !bound[src].is_finite() {
        return None;
    }

    dist[src] = 0.0;
    touched.push(src);
    heap.push(HeapEntry {
        key: bound[src],
        g: 0.0,
        node: src,
    });
    while let Some(HeapEntry { key, g, node }) = heap.pop() {
        // `dist[dst]` is +inf until the goal is reached, so this only stops
        // once every node that could still be a tight predecessor is done.
        if key > dist[dst] * (1.0 + TIE_SLACK) {
            break;
        }
        if g > dist[node] {
            continue;
        }
        for &(next, eid) in topo.neighbors(node) {
            if edge_ban[eid] == ban_epoch || node_ban[next] == ban_epoch {
                continue;
            }
            let h = bound[next];
            if !h.is_finite() {
                // `next` cannot reach `dst` at all.
                continue;
            }
            let nd = g + topo.edge(eid).weight;
            if nd < dist[next] {
                if dist[next].is_infinite() {
                    touched.push(next);
                }
                dist[next] = nd;
                prev[next] = Some((node, eid));
                heap.push(HeapEntry {
                    key: nd + h,
                    g: nd,
                    node: next,
                });
            } else if nd == dist[next] {
                // Tie: keep the predecessor with the least (g, node id), the
                // one Dijkstra would have popped first.
                if let Some((p, _)) = prev[next] {
                    if g < dist[p] || (g == dist[p] && node < p) {
                        prev[next] = Some((node, eid));
                    }
                }
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

/// Dijkstra shortest path from `src` to `dst` by edge weight, optionally
/// masking out edges and nodes: the bounded search with `h ≡ 0`.
pub fn dijkstra_masked(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned_edges: &HashSet<EdgeId>,
    banned_nodes: &HashSet<NodeId>,
) -> Option<Path> {
    let mut scratch = KspScratch::new(topo);
    let ban = scratch.next_epoch();
    for &e in banned_edges {
        scratch.edge_ban[e] = ban;
    }
    for &v in banned_nodes {
        scratch.node_ban[v] = ban;
    }
    // A fresh scratch's bound is zero everywhere: plain Dijkstra.
    bounded_search(topo, src, dst, &mut scratch, ban)
}

/// Plain shortest path.
pub fn dijkstra(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    dijkstra_masked(topo, src, dst, &HashSet::new(), &HashSet::new())
}

/// Hop counts from `src` to every node (BFS, unit weights).
pub fn bfs_hops(topo: &Topology, src: NodeId) -> Vec<Option<usize>> {
    let n = topo.num_nodes();
    let mut hops = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    hops[src] = Some(0);
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let d = hops[u].unwrap();
        for &(v, _) in topo.neighbors(u) {
            if hops[v].is_none() {
                hops[v] = Some(d + 1);
                queue.push_back(v);
            }
        }
    }
    hops
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
    scratch.index_in_edges(topo);
    scratch.bound_to(topo, dst);
    yen(topo, src, dst, k, scratch)
}

/// Yen's loop over bounded spur searches. `scratch.bound` must hold the
/// unmasked distances to `dst` in `topo` ([`KspScratch::bound_to`]).
fn yen(topo: &Topology, src: NodeId, dst: NodeId, k: usize, scratch: &mut KspScratch) -> Vec<Path> {
    let unmasked = scratch.next_epoch();
    let Some(first) = bounded_search(topo, src, dst, scratch, unmasked) else {
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

            if let Some(spur) = bounded_search(topo, spur_node, dst, scratch, ban) {
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

/// Precomputed candidate paths for a set of demand pairs.
///
/// Alongside the paths themselves, `compute` flattens the edge→path
/// incidence once into a CSR-style arena (`e2p_off` offsets into `e2p` path
/// ids), so solvers query [`paths_on_edge`](PathSet::paths_on_edge) as a
/// slice instead of rebuilding a `Vec<Vec<usize>>` per call.
#[derive(Clone, Debug)]
pub struct PathSet {
    k: usize,
    pairs: Vec<(NodeId, NodeId)>,
    /// `pairs.len() * k` paths, demand-major. Pairs with fewer than `k`
    /// simple paths repeat theirs cyclically.
    paths: Vec<Path>,
    /// Directed edge count of the topology the set was computed on.
    num_edges: usize,
    /// Edge-major offsets: paths crossing edge `e` live at
    /// `e2p[e2p_off[e]..e2p_off[e + 1]]`, ascending.
    e2p_off: Vec<u32>,
    /// Flat path-id arena indexed by `e2p_off`.
    e2p: Vec<u32>,
}

impl PathSet {
    /// Compute `k` shortest paths per pair, in parallel across pairs.
    pub fn compute(topo: &Topology, pairs: &[(NodeId, NodeId)], k: usize) -> PathSet {
        assert!(k >= 1);
        let threads = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
            .min(8);
        let chunk_results = parallel_paths(topo, pairs, k, threads);
        let mut paths = Vec::with_capacity(pairs.len() * k);
        for (pair, mut found) in pairs.iter().zip(chunk_results) {
            assert!(
                !found.is_empty(),
                "no path between {} and {} — topology must be connected",
                pair.0,
                pair.1
            );
            let base = found.len();
            for i in base..k {
                let repeat = found[i % base].clone();
                found.push(repeat);
            }
            paths.extend(found.into_iter().take(k));
        }

        // Flatten the edge→path incidence with a counting sort: path-major
        // fill keeps each edge's path-id list ascending.
        let num_edges = topo.num_edges();
        let mut e2p_off = vec![0u32; num_edges + 1];
        for p in &paths {
            for &e in &p.edges {
                e2p_off[e + 1] += 1;
            }
        }
        for e in 0..num_edges {
            e2p_off[e + 1] += e2p_off[e];
        }
        let mut cursor: Vec<u32> = e2p_off[..num_edges].to_vec();
        let mut e2p = vec![0u32; e2p_off[num_edges] as usize];
        for (p_idx, p) in paths.iter().enumerate() {
            for &e in &p.edges {
                e2p[cursor[e] as usize] = p_idx as u32;
                cursor[e] += 1;
            }
        }

        PathSet {
            k,
            pairs: pairs.to_vec(),
            paths,
            num_edges,
            e2p_off,
            e2p,
        }
    }

    /// Paths per demand (always exactly `k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The demand pairs, in order.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Number of demands.
    pub fn num_demands(&self) -> usize {
        self.pairs.len()
    }

    /// Total number of path slots (`num_demands * k`).
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Directed edge count of the topology this set was computed on.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// All paths, demand-major.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The `k` candidate paths of demand `d`.
    pub fn paths_for(&self, d: usize) -> &[Path] {
        &self.paths[d * self.k..(d + 1) * self.k]
    }

    /// Global path index for demand `d`, candidate `j`.
    pub fn path_index(&self, d: usize, j: usize) -> usize {
        d * self.k + j
    }

    /// COO triplets of the path-edge incidence matrix `A` (`num_paths` x
    /// `num_edges`), `A[p][e] = 1` iff edge `e` lies on path `p`. This is the
    /// bipartite structure FlowGNN's GNN layers message-pass over (§3.2).
    pub fn incidence_triplets(&self) -> Vec<(usize, usize, f32)> {
        let mut t = Vec::new();
        for (p_idx, p) in self.paths.iter().enumerate() {
            for &e in &p.edges {
                t.push((p_idx, e, 1.0));
            }
        }
        t
    }

    /// Path ids crossing directed edge `e`, ascending. Precomputed once at
    /// construction — the inverse of each path's edge list, as a borrow.
    pub fn paths_on_edge(&self, e: EdgeId) -> &[u32] {
        let lo = self.e2p_off[e] as usize;
        let hi = self.e2p_off[e + 1] as usize;
        &self.e2p[lo..hi]
    }
}

/// Run Yen's per pair on a crossbeam thread pool, preserving input order.
/// Each worker thread owns one [`KspScratch`].
fn parallel_paths(
    topo: &Topology,
    pairs: &[(NodeId, NodeId)],
    k: usize,
    threads: usize,
) -> Vec<Vec<Path>> {
    let n = pairs.len();
    let mut out: Vec<Vec<Path>> = vec![Vec::new(); n];
    if threads <= 1 || n < 32 {
        paths_for_chunk(topo, pairs, k, &mut out);
        return out;
    }
    let chunk = n.div_ceil(threads);
    crossbeam::scope(|scope| {
        for (pair_chunk, out_chunk) in pairs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move |_| paths_for_chunk(topo, pair_chunk, k, out_chunk));
        }
    })
    .expect("path computation worker panicked");
    out
}

/// Yen's for each pair of one chunk into `out`, visiting the pairs grouped
/// by destination so each destination's bound is computed once.
fn paths_for_chunk(topo: &Topology, pairs: &[(NodeId, NodeId)], k: usize, out: &mut [Vec<Path>]) {
    let mut scratch = KspScratch::new(topo);
    scratch.index_in_edges(topo);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by_key(|&i| pairs[i].1);
    let mut bound_for = None;
    for i in order {
        let (src, dst) = pairs[i];
        if bound_for != Some(dst) {
            scratch.bound_to(topo, dst);
            bound_for = Some(dst);
        }
        out[i] = yen(topo, src, dst, k, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-node diamond: 0-1-3 (weights 1+1), 0-2-3 (1+2), 0-3 direct (5).
    fn diamond() -> Topology {
        let mut t = Topology::new("diamond", 4);
        t.add_link(0, 1, 10.0, 1.0);
        t.add_link(1, 3, 10.0, 1.0);
        t.add_link(0, 2, 10.0, 1.0);
        t.add_link(2, 3, 10.0, 2.0);
        t.add_link(0, 3, 10.0, 5.0);
        t
    }

    #[test]
    fn dijkstra_picks_lightest() {
        let t = diamond();
        let p = dijkstra(&t, 0, 3).unwrap();
        assert_eq!(p.nodes, vec![0, 1, 3]);
        assert!((p.weight - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dijkstra_unreachable_none() {
        let mut t = Topology::new("d", 3);
        t.add_link(0, 1, 1.0, 1.0);
        assert!(dijkstra(&t, 0, 2).is_none());
    }

    #[test]
    fn dijkstra_masked_respects_bans() {
        let t = diamond();
        // Ban the 0->1 edge: best route becomes 0-2-3 (weight 3).
        let e01 = t.find_edge(0, 1).unwrap();
        let banned: HashSet<_> = [e01].into_iter().collect();
        let p = dijkstra_masked(&t, 0, 3, &banned, &HashSet::new()).unwrap();
        assert_eq!(p.nodes, vec![0, 2, 3]);
        // Ban node 1 instead: same result.
        let bn: HashSet<_> = [1usize].into_iter().collect();
        let p2 = dijkstra_masked(&t, 0, 3, &HashSet::new(), &bn).unwrap();
        assert_eq!(p2.nodes, vec![0, 2, 3]);
    }

    #[test]
    fn yen_orders_by_weight() {
        let t = diamond();
        let ps = k_shortest_paths(&t, 0, 3, 3);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].nodes, vec![0, 1, 3]); // weight 2
        assert_eq!(ps[1].nodes, vec![0, 2, 3]); // weight 3
        assert_eq!(ps[2].nodes, vec![0, 3]); // weight 5
        assert!(ps.windows(2).all(|w| w[0].weight <= w[1].weight));
        assert!(ps.iter().all(|p| p.is_simple()));
    }

    #[test]
    fn yen_handles_fewer_than_k() {
        let mut t = Topology::new("line", 3);
        t.add_link(0, 1, 1.0, 1.0);
        t.add_link(1, 2, 1.0, 1.0);
        let ps = k_shortest_paths(&t, 0, 2, 4);
        assert_eq!(ps.len(), 1); // only one simple path exists
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One scratch across many (src, dst, k) queries must give the same
        // answers as a fresh scratch per query.
        let t = diamond();
        let mut shared = KspScratch::new(&t);
        for s in 0..4 {
            for d in 0..4 {
                if s == d {
                    continue;
                }
                for k in 1..=4 {
                    let a = k_shortest_paths_with(&t, s, d, k, &mut shared);
                    let b = k_shortest_paths(&t, s, d, k);
                    assert_eq!(a.len(), b.len());
                    for (pa, pb) in a.iter().zip(&b) {
                        assert_eq!(pa.edges, pb.edges);
                        assert_eq!(pa.nodes, pb.nodes);
                    }
                }
            }
        }
    }

    #[test]
    fn pathset_pads_to_k() {
        let mut t = Topology::new("line", 3);
        t.add_link(0, 1, 1.0, 1.0);
        t.add_link(1, 2, 1.0, 1.0);
        let ps = PathSet::compute(&t, &[(0, 2), (2, 0)], 4);
        assert_eq!(ps.num_demands(), 2);
        assert_eq!(ps.num_paths(), 8);
        // All 4 slots of demand 0 are the same physical path.
        let d0 = ps.paths_for(0);
        assert!(d0.iter().all(|p| p.edges == d0[0].edges));
    }

    #[test]
    fn incidence_matches_paths() {
        let t = diamond();
        let ps = PathSet::compute(&t, &[(0, 3)], 4);
        let trips = ps.incidence_triplets();
        let total_edges: usize = ps.paths().iter().map(|p| p.len()).sum();
        assert_eq!(trips.len(), total_edges);
        for (p_idx, e, v) in trips {
            assert_eq!(v, 1.0);
            assert!(ps.paths()[p_idx].edges.contains(&e));
        }
    }

    #[test]
    fn flat_edge_index_is_exact_inverse() {
        let t = diamond();
        let ps = PathSet::compute(&t, &[(0, 3), (3, 0)], 4);
        assert_eq!(ps.num_edges(), t.num_edges());
        let mut listed = 0usize;
        for e in 0..t.num_edges() {
            let plist = ps.paths_on_edge(e);
            // Ascending and deduplicated by construction.
            assert!(plist.windows(2).all(|w| w[0] < w[1]));
            for &p in plist {
                assert!(ps.paths()[p as usize].edges.contains(&e));
            }
            listed += plist.len();
        }
        // Every (path, edge) incidence appears exactly once.
        let expected: usize = ps.paths().iter().map(|p| p.len()).sum();
        assert_eq!(listed, expected);
    }

    #[test]
    fn bfs_hops_simple() {
        let t = diamond();
        let hops = bfs_hops(&t, 0);
        assert_eq!(hops[0], Some(0));
        assert_eq!(hops[3], Some(1)); // direct link exists
    }

    #[test]
    fn parallel_matches_serial() {
        // Enough pairs (>= 32) to take the threaded, destination-grouped
        // branch, checked against one scratch walking the pairs in input
        // order with a fresh bound per pair.
        let t = crate::gen::large_wan(64, 3);
        let pairs = crate::gen::gravity_pairs(&t, 96, 5);
        assert!(pairs.len() >= 32);
        let mut scratch = KspScratch::new(&t);
        let serial: Vec<Vec<Path>> = pairs
            .iter()
            .map(|&(s, d)| k_shortest_paths_with(&t, s, d, 4, &mut scratch))
            .collect();
        for threads in [1, 3, 4] {
            assert_eq!(parallel_paths(&t, &pairs, 4, threads), serial);
        }
        let ps = PathSet::compute(&t, &pairs, 4);
        for (d, found) in serial.iter().enumerate() {
            for (j, p) in ps.paths_for(d).iter().enumerate() {
                assert_eq!(*p, found[j % found.len()]);
            }
        }
    }
}
