//! d-separation and the backdoor criterion.
//!
//! Implements the linear-time *reachable* procedure (Koller & Friedman,
//! Alg. 3.1) to decide d-separation, and uses it to check Pearl's backdoor
//! criterion, which licenses the adjustment formula (paper eq. 4):
//!
//! `Pr(y | do(x)) = Σ_c Pr(y | c, x) Pr(c)`.

use crate::graph::{Dag, NodeId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Arrived at the node from one of its children (travelling upward).
    Up,
    /// Arrived at the node from one of its parents (travelling downward).
    Down,
}

/// All nodes reachable from `sources` via active trails given observed `z`.
///
/// Nodes in `z` are never reported reachable; colliders are opened when
/// they (or a descendant) are observed.
fn reachable(g: &Dag, sources: &[NodeId], z: &[NodeId]) -> Vec<bool> {
    let n = g.n_nodes();
    let mut in_z = vec![false; n];
    for &v in z {
        in_z[v] = true;
    }
    // A = Z ∪ ancestors(Z): the nodes whose observation opens colliders.
    let mut in_a = in_z.clone();
    let mut stack: Vec<NodeId> = z.to_vec();
    while let Some(v) = stack.pop() {
        for &p in g.parents(v) {
            if !in_a[p] {
                in_a[p] = true;
                stack.push(p);
            }
        }
    }

    let mut visited_up = vec![false; n];
    let mut visited_down = vec![false; n];
    let mut reach = vec![false; n];
    let mut queue: Vec<(NodeId, Dir)> = sources.iter().map(|&s| (s, Dir::Up)).collect();

    while let Some((y, d)) = queue.pop() {
        let visited = match d {
            Dir::Up => &mut visited_up,
            Dir::Down => &mut visited_down,
        };
        if visited[y] {
            continue;
        }
        visited[y] = true;

        match d {
            Dir::Up => {
                if !in_z[y] {
                    reach[y] = true;
                    for &p in g.parents(y) {
                        queue.push((p, Dir::Up));
                    }
                    for &c in g.children(y) {
                        queue.push((c, Dir::Down));
                    }
                }
            }
            Dir::Down => {
                if !in_z[y] {
                    reach[y] = true;
                    for &c in g.children(y) {
                        queue.push((c, Dir::Down));
                    }
                }
                if in_a[y] {
                    // Collider (or its observed ancestor chain) is open.
                    for &p in g.parents(y) {
                        queue.push((p, Dir::Up));
                    }
                }
            }
        }
    }
    reach
}

/// Whether every `x ∈ xs` is d-separated from every `y ∈ ys` given `z`.
///
/// Nodes appearing in `z` are treated as separated from everything (they
/// are fixed by conditioning).
pub fn is_d_separated(g: &Dag, xs: &[NodeId], ys: &[NodeId], z: &[NodeId]) -> bool {
    let sources: Vec<NodeId> = xs.iter().copied().filter(|x| !z.contains(x)).collect();
    if sources.is_empty() {
        return true;
    }
    let reach = reachable(g, &sources, z);
    ys.iter().all(|&y| z.contains(&y) || !reach[y])
}

/// Check Pearl's backdoor criterion: `z` is a valid adjustment set
/// relative to `(xs, ys)` iff
/// 1. no node of `z` is a strict descendant of any `x ∈ xs`, and
/// 2. `z` blocks every backdoor path, i.e. `xs ⫫ ys | z` in the graph
///    with all edges leaving `xs` removed.
pub fn satisfies_backdoor(g: &Dag, xs: &[NodeId], ys: &[NodeId], z: &[NodeId]) -> bool {
    for &v in z {
        for &x in xs {
            if g.is_strict_descendant(v, x) {
                return false;
            }
        }
    }
    let mutilated = g.without_outgoing(xs);
    is_d_separated(&mutilated, xs, ys, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain 0 → 1 → 2.
    fn chain() -> Dag {
        let mut g = Dag::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g
    }

    /// Collider 0 → 2 ← 1, with 2 → 3.
    fn collider() -> Dag {
        let mut g = Dag::new(4);
        g.add_edge(0, 2).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g
    }

    /// Confounded: 2 → 0, 2 → 1, 0 → 1 (2 confounds 0 and 1).
    fn confounded() -> Dag {
        let mut g = Dag::new(3);
        g.add_edge(2, 0).unwrap();
        g.add_edge(2, 1).unwrap();
        g.add_edge(0, 1).unwrap();
        g
    }

    #[test]
    fn chain_separation() {
        let g = chain();
        assert!(!is_d_separated(&g, &[0], &[2], &[]));
        assert!(
            is_d_separated(&g, &[0], &[2], &[1]),
            "chain blocked by middle"
        );
    }

    #[test]
    fn collider_separation() {
        let g = collider();
        // marginally independent parents
        assert!(is_d_separated(&g, &[0], &[1], &[]));
        // conditioning on the collider opens the path
        assert!(!is_d_separated(&g, &[0], &[1], &[2]));
        // conditioning on a descendant of the collider also opens it
        assert!(!is_d_separated(&g, &[0], &[1], &[3]));
    }

    #[test]
    fn fork_separation() {
        let mut g = Dag::new(3);
        g.add_edge(2, 0).unwrap();
        g.add_edge(2, 1).unwrap();
        assert!(!is_d_separated(&g, &[0], &[1], &[]));
        assert!(is_d_separated(&g, &[0], &[1], &[2]));
    }

    #[test]
    fn conditioned_nodes_are_separated() {
        let g = chain();
        assert!(is_d_separated(&g, &[0], &[0], &[0]));
        assert!(is_d_separated(&g, &[1], &[2], &[1]));
    }

    #[test]
    fn backdoor_on_confounded_graph() {
        let g = confounded();
        // X=0, Y=1: backdoor path 0 ← 2 → 1 must be blocked.
        assert!(!satisfies_backdoor(&g, &[0], &[1], &[]));
        assert!(satisfies_backdoor(&g, &[0], &[1], &[2]));
    }

    #[test]
    fn backdoor_rejects_descendants() {
        let g = chain();
        // 2 is a descendant of 0: invalid in any adjustment set for (0, _).
        assert!(!satisfies_backdoor(&g, &[0], &[1], &[2]));
        // empty set is fine: no backdoor paths at all
        assert!(satisfies_backdoor(&g, &[0], &[2], &[]));
    }

    #[test]
    fn backdoor_m_graph_needs_search() {
        // M-graph: 0 ← 2 → 4 ← 3 → 1, edge 0 → 1.
        // Conditioning on 4 alone *opens* the collider; empty set works.
        let mut g = Dag::new(5);
        g.add_edge(2, 0).unwrap();
        g.add_edge(2, 4).unwrap();
        g.add_edge(3, 4).unwrap();
        g.add_edge(3, 1).unwrap();
        g.add_edge(0, 1).unwrap();
        assert!(satisfies_backdoor(&g, &[0], &[1], &[]));
        assert!(!satisfies_backdoor(&g, &[0], &[1], &[4]));
        // {4, 2} closes it again
        assert!(satisfies_backdoor(&g, &[0], &[1], &[4, 2]));
    }

    #[test]
    fn multi_node_sets() {
        // two treatments 0,1 with common confounder 2 of outcome 3
        let mut g = Dag::new(4);
        g.add_edge(2, 0).unwrap();
        g.add_edge(2, 3).unwrap();
        g.add_edge(0, 3).unwrap();
        g.add_edge(1, 3).unwrap();
        assert!(!satisfies_backdoor(&g, &[0, 1], &[3], &[]));
        assert!(satisfies_backdoor(&g, &[0, 1], &[3], &[2]));
    }
}
