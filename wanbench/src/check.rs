//! Reply checks. Every reply the benchmark receives passes through
//! [`check_allocation`]; a reply that fails counts as a failed request and
//! makes the run exit non-zero.

use std::collections::BTreeMap;
use teal_core::Env;
use teal_lp::{evaluate, Allocation};
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

/// Slack on each demand's split sum (≤ 1 + `SPLIT_SUM_EPS`).
pub const SPLIT_SUM_EPS: f64 = 1e-6;
/// Largest per-split difference tolerated between a wire reply and the
/// in-process allocation of the same matrices.
pub const REFERENCE_EPS: f64 = 1e-6;

/// Splits are finite and in [0, 1], each demand's splits sum to at most
/// 1 + [`SPLIT_SUM_EPS`], the shape matches the topology's demand set, and
/// every path in `dead_paths` (paths crossing a failed link) carries zero.
pub fn check_allocation(env: &Env, alloc: &Allocation, dead_paths: &[usize]) -> Result<(), String> {
    if alloc.num_demands() != env.num_demands() || alloc.k() != env.k() {
        return Err(format!(
            "allocation shape {}x{} != topology {}x{}",
            alloc.num_demands(),
            alloc.k(),
            env.num_demands(),
            env.k()
        ));
    }
    for d in 0..alloc.num_demands() {
        let splits = alloc.demand_splits(d);
        if let Some(s) = splits
            .iter()
            .find(|s| !s.is_finite() || !(0.0..=1.0).contains(*s))
        {
            return Err(format!("demand {d}: split {s} outside [0, 1]"));
        }
        let sum: f64 = splits.iter().sum();
        if sum > 1.0 + SPLIT_SUM_EPS {
            return Err(format!("demand {d}: splits sum to {sum}"));
        }
    }
    if let Some(&p) = dead_paths.iter().find(|&&p| alloc.splits()[p] != 0.0) {
        return Err(format!(
            "path {p} crosses a failed link but carries split {}",
            alloc.splits()[p]
        ));
    }
    Ok(())
}

/// Largest per-split difference between two allocations of one shape.
pub fn max_split_diff(a: &Allocation, b: &Allocation) -> f64 {
    if a.splits().len() != b.splits().len() {
        return f64::INFINITY;
    }
    a.splits()
        .iter()
        .zip(b.splits())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The topology with every link in `failed` down (both directions).
pub fn failed_topology(env: &Env, failed: &[(usize, usize)]) -> Topology {
    failed
        .iter()
        .fold(env.topo().clone(), |t, &(a, b)| t.with_failed_link(a, b))
}

/// Candidate paths of `env` crossing a zero-capacity edge of `topo`.
pub fn dead_paths(env: &Env, topo: &Topology) -> Vec<usize> {
    env.paths()
        .paths()
        .iter()
        .enumerate()
        .filter(|(_, path)| path.edges.iter().any(|&e| topo.edge(e).capacity <= 0.0))
        .map(|(p, _)| p)
        .collect()
}

/// Satisfied demand and link overuse of one reply, both as raw sums so
/// callers can pool them: `(satisfied_pct, total_overuse, total_demand)`.
pub fn quality(
    env: &Env,
    topo: &Topology,
    tm: &TrafficMatrix,
    alloc: &Allocation,
) -> (f64, f64, f64) {
    let stats = evaluate(&env.instance_on(topo, tm), alloc);
    (
        stats.satisfied_pct(),
        stats.total_overuse,
        stats.total_demand,
    )
}

/// Reply quality pooled over distinct inputs: each input (keyed by its
/// index in the run's input pool) counts once, in key order, so the result
/// repeats bit for bit however replies interleave.
#[derive(Default)]
pub struct Quality(BTreeMap<usize, (f64, f64, f64)>);

impl Quality {
    pub fn contains(&self, key: usize) -> bool {
        self.0.contains_key(&key)
    }

    pub fn add(&mut self, key: usize, q: (f64, f64, f64)) {
        self.0.entry(key).or_insert(q);
    }

    pub fn merge(&mut self, other: Quality) {
        for (k, q) in other.0 {
            self.add(k, q);
        }
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Mean satisfied demand (%).
    pub fn satisfied_pct(&self) -> f64 {
        self.0.values().map(|q| q.0).sum::<f64>() / self.0.len() as f64
    }

    /// Total link overuse as a share of total demand (%).
    pub fn overuse_pct(&self) -> f64 {
        let overuse: f64 = self.0.values().map(|q| q.1).sum();
        let demand: f64 = self.0.values().map(|q| q.2).sum();
        100.0 * overuse / demand
    }
}
