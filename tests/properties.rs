//! Property-based tests (proptest) over the core data structures and
//! the paper's invariants.

use lewis::causal::{is_d_separated, Dag};
use lewis::core::report::{kendall_tau, ranks_desc, spearman_rho};
use lewis::optim::{Group, IpError, Item, MckpSolver};
use lewis::tabular::{Binner, BinningStrategy, Context, Counter, Domain, Schema, Table};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// tabular invariants
// ---------------------------------------------------------------------

/// Strategy: a small random table over a fixed 3-attribute schema.
fn arb_table() -> impl Strategy<Value = Table> {
    proptest::collection::vec((0u32..3, 0u32..4, 0u32..2), 1..60).prop_map(|rows| {
        let mut s = Schema::new();
        s.push("a", Domain::categorical(["0", "1", "2"]));
        s.push("b", Domain::categorical(["0", "1", "2", "3"]));
        s.push("c", Domain::boolean());
        let mut t = Table::new(s);
        for (a, b, c) in rows {
            t.push_row(&[a, b, c]).unwrap();
        }
        t
    })
}

proptest! {
    #[test]
    fn filter_count_consistency(t in arb_table(), a in 0u32..3, b in 0u32..4) {
        let ctx = Context::of([(lewis::tabular::AttrId(0), a), (lewis::tabular::AttrId(1), b)]);
        prop_assert_eq!(t.filter(&ctx).len(), t.count(&ctx));
        // filter results actually satisfy the context
        for r in t.filter(&ctx) {
            prop_assert!(ctx.matches_row(&t.row(r).unwrap()));
        }
    }

    #[test]
    fn conditional_distribution_is_normalized(t in arb_table(), alpha in 0.0f64..3.0) {
        let attr = lewis::tabular::AttrId(1);
        if let Ok(d) = t.distribution(attr, &Context::empty(), alpha) {
            let sum: f64 = d.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(d.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn counter_marginals_match_table_counts(t in arb_table()) {
        let attrs = [lewis::tabular::AttrId(0), lewis::tabular::AttrId(2)];
        let counter = Counter::build(&t, &attrs, &Context::empty()).unwrap();
        prop_assert_eq!(counter.total() as usize, t.n_rows());
        for a in 0..3u32 {
            for c in 0..2u32 {
                let via_counter = counter.count(&[a, c]);
                let via_table = t.count(&Context::of([
                    (lewis::tabular::AttrId(0), a),
                    (lewis::tabular::AttrId(2), c),
                ]));
                prop_assert_eq!(via_counter as usize, via_table);
            }
        }
        // pinned marginal equals sum over free attribute
        for a in 0..3u32 {
            let marg = counter.marginal_count(&[Some(a), None]);
            let direct: u64 = (0..2u32).map(|c| counter.count(&[a, c])).sum();
            prop_assert_eq!(marg, direct);
        }
    }

    #[test]
    fn binning_respects_order_and_range(
        mut xs in proptest::collection::vec(-1000.0f64..1000.0, 2..200),
        n_bins in 1usize..10
    ) {
        let binner = Binner::fit(&BinningStrategy::EqualWidth { n_bins }, &xs).unwrap();
        let card = binner.domain().cardinality();
        prop_assert!(card <= n_bins && card >= 1);
        xs.sort_by(|p, q| p.partial_cmp(q).unwrap());
        let codes = binner.transform(&xs);
        // codes are monotone in the raw value
        for w in codes.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert!(codes.iter().all(|&c| (c as usize) < card));
    }

    #[test]
    fn context_set_then_get_roundtrip(pairs in proptest::collection::vec((0u32..30, 0u32..10), 0..20)) {
        let mut ctx = Context::empty();
        let mut reference = std::collections::BTreeMap::new();
        for &(a, v) in &pairs {
            ctx.set(lewis::tabular::AttrId(a), v);
            reference.insert(a, v);
        }
        prop_assert_eq!(ctx.len(), reference.len());
        for (&a, &v) in &reference {
            prop_assert_eq!(ctx.get(lewis::tabular::AttrId(a)), Some(v));
        }
        // iteration is sorted by attribute id
        let attrs: Vec<u32> = ctx.iter().map(|(a, _)| a.0).collect();
        let mut sorted = attrs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(attrs, sorted);
    }
}

// ---------------------------------------------------------------------
// causal-graph invariants
// ---------------------------------------------------------------------

/// Strategy: a random DAG over `n` nodes (edges only from lower to
/// higher index, so acyclicity is guaranteed by construction).
fn arb_dag(n: usize) -> impl Strategy<Value = Dag> {
    proptest::collection::vec((0usize..n, 0usize..n), 0..n * 2).prop_map(move |pairs| {
        let mut g = Dag::new(n);
        for (a, b) in pairs {
            if a < b {
                g.add_edge(a, b).unwrap();
            }
        }
        g
    })
}

proptest! {
    #[test]
    fn topological_order_respects_all_edges(g in arb_dag(8)) {
        let order = g.topological_order();
        prop_assert_eq!(order.len(), 8);
        let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
        for (from, to) in g.edges() {
            prop_assert!(pos(from) < pos(to));
        }
    }

    #[test]
    fn descendants_and_ancestors_are_inverse(g in arb_dag(8)) {
        for v in 0..8 {
            for &d in &g.descendants(v) {
                prop_assert!(g.ancestors(d).contains(&v), "{v} -> {d}");
            }
            for &a in &g.ancestors(v) {
                prop_assert!(g.descendants(a).contains(&v));
            }
        }
    }

    #[test]
    fn d_separation_is_symmetric(g in arb_dag(7), x in 0usize..7, y in 0usize..7, z in 0usize..7) {
        prop_assume!(x != y && x != z && y != z);
        let a = is_d_separated(&g, &[x], &[y], &[z]);
        let b = is_d_separated(&g, &[y], &[x], &[z]);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn disconnected_nodes_are_d_separated(x in 0usize..4, y in 4usize..8) {
        // two disjoint components: 0..4 and 4..8 chains
        let mut g = Dag::new(8);
        for i in 0..3 {
            g.add_edge(i, i + 1).unwrap();
        }
        for i in 4..7 {
            g.add_edge(i, i + 1).unwrap();
        }
        prop_assert!(is_d_separated(&g, &[x], &[y], &[]));
    }
}

// ---------------------------------------------------------------------
// IP-solver invariants
// ---------------------------------------------------------------------

fn arb_groups() -> impl Strategy<Value = Vec<Group>> {
    proptest::collection::vec(
        proptest::collection::vec((0.0f64..10.0, -3.0f64..6.0), 1..4),
        1..5,
    )
    .prop_map(|gs| {
        gs.into_iter()
            .enumerate()
            .map(|(gid, items)| Group {
                id: gid,
                items: items
                    .into_iter()
                    .enumerate()
                    .map(|(iid, (cost, gain))| Item {
                        id: iid,
                        cost,
                        gain,
                    })
                    .collect(),
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn solver_solutions_are_feasible_and_unbeatable(groups in arb_groups(), target in 0.0f64..8.0) {
        let solver = MckpSolver::new(groups.clone(), target).unwrap();
        match solver.solve() {
            Ok(sol) => {
                prop_assert!(sol.total_gain >= target - 1e-9);
                // at most one item per group
                let mut seen = std::collections::HashSet::new();
                for &(g, _) in &sol.chosen {
                    prop_assert!(seen.insert(g), "group {g} chosen twice");
                }
                // brute force can't do better
                let best = brute_force(&groups, target);
                prop_assert!(best.is_some());
                prop_assert!((sol.total_cost - best.unwrap()).abs() < 1e-9,
                    "solver {} vs brute {}", sol.total_cost, best.unwrap());
            }
            Err(IpError::Infeasible) => {
                prop_assert!(brute_force(&groups, target).is_none());
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }
}

fn brute_force(groups: &[Group], target: f64) -> Option<f64> {
    fn walk(groups: &[Group], i: usize, cost: f64, gain: f64, target: f64, best: &mut Option<f64>) {
        if gain >= target && best.is_none_or(|b| cost < b) {
            *best = Some(cost);
        }
        if i == groups.len() {
            return;
        }
        walk(groups, i + 1, cost, gain, target, best);
        for it in &groups[i].items {
            walk(groups, i + 1, cost + it.cost, gain + it.gain, target, best);
        }
    }
    let mut best = None;
    walk(groups, 0, 0.0, 0.0, target, &mut best);
    best
}

// ---------------------------------------------------------------------
// report / ranking invariants
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn ranks_are_a_valid_competition_ranking(scores in proptest::collection::vec(0.0f64..1.0, 1..20)) {
        let ranks = ranks_desc(&scores);
        prop_assert_eq!(ranks.len(), scores.len());
        // rank 1 goes to (one of) the maxima
        let max = scores.iter().cloned().fold(f64::MIN, f64::max);
        for (i, &r) in ranks.iter().enumerate() {
            prop_assert!((1..=scores.len()).contains(&r));
            if r == 1 {
                prop_assert_eq!(scores[i], max);
            }
        }
        // equal scores share ranks
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] == scores[j] {
                    prop_assert_eq!(ranks[i], ranks[j]);
                }
            }
        }
    }

    #[test]
    fn correlation_measures_bounded((a, b) in (2usize..15).prop_flat_map(|n| (
        proptest::collection::vec(0.0f64..1.0, n),
        proptest::collection::vec(0.0f64..1.0, n),
    ))) {
        let rho = spearman_rho(&a, &b);
        let tau = kendall_tau(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&rho), "rho {rho}");
        prop_assert!((-1.0..=1.0).contains(&tau), "tau {tau}");
        // self-correlation is maximal (when not constant)
        if a.windows(2).any(|w| w[0] != w[1]) {
            prop_assert!((spearman_rho(&a, &a) - 1.0).abs() < 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// score invariants on random small worlds
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn scores_are_probabilities_on_random_worlds(seed in 0u64..5000, flip in 0.05f64..0.45) {
        use lewis::causal::{Mechanism, ScmBuilder};
        use lewis::core::Engine;
        use rand::SeedableRng;

        let mut schema = Schema::new();
        schema.push("c", Domain::boolean());
        schema.push("x", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        b.edge(0, 1).unwrap();
        b.mechanism(0, Mechanism::root(vec![0.5, 0.5])).unwrap();
        let fp = flip;
        b.mechanism(1, Mechanism::with_noise(
            vec![1.0 - fp, fp],
            |pa, u| pa[0] ^ (u as u32),
        )).unwrap();
        let scm = b.build().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = scm.generate(600, &mut rng);
        let f = |row: &[u32]| u32::from(row[0] + row[1] >= 1);
        let pred = lewis::core::blackbox::label_table(&mut t, &f, "pred").unwrap();
        let engine = Engine::builder(t.clone())
            .graph(scm.graph())
            .prediction(pred, 1)
            .features(&[lewis::tabular::AttrId(0), lewis::tabular::AttrId(1)])
            .alpha(0.5)
            .build()
            .unwrap();
        if let Ok(s) = engine.estimator().scores(lewis::tabular::AttrId(1), 1, 0, &Context::empty()) {
            for v in [s.necessity, s.sufficiency, s.nesuf] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
            // Prop 4.3 direction: NESUF cannot exceed the weighted
            // combination bound by more than estimation noise
            let n = t.n_rows() as f64;
            let pr_o_x = t.count(&Context::of([(lewis::tabular::AttrId(1), 1), (pred, 1)])) as f64 / n;
            let pr_on_xn = t.count(&Context::of([(lewis::tabular::AttrId(1), 0), (pred, 0)])) as f64 / n;
            let bound = pr_o_x * s.necessity + pr_on_xn * s.sufficiency;
            prop_assert!(s.nesuf <= bound + 0.25, "nesuf {} vs bound {}", s.nesuf, bound);
        }
    }
}
