//! Property-based tests for SCM semantics: the consistency rule, the
//! determinism contract, and interventional invariants hold on random
//! structural models.

use causal::{Mechanism, Scm, ScmBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabular::{Domain, Schema, Value};

/// A random 4-node SCM over a fixed chain-plus-fork shape with random
/// flip probabilities (kept away from 0/1 so every world is reachable).
fn arb_scm() -> impl Strategy<Value = Scm> {
    (0.1f64..0.9, 0.05f64..0.45, 0.05f64..0.45, 0.05f64..0.45).prop_map(|(root_p, f1, f2, f3)| {
        let mut schema = Schema::new();
        schema.push("a", Domain::boolean());
        schema.push("b", Domain::boolean());
        schema.push("c", Domain::boolean());
        schema.push("d", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        // a → b → d, a → c → d
        b.edge(0, 1).unwrap();
        b.edge(0, 2).unwrap();
        b.edge(1, 3).unwrap();
        b.edge(2, 3).unwrap();
        b.mechanism(0, Mechanism::root(vec![1.0 - root_p, root_p]))
            .unwrap();
        b.mechanism(
            1,
            Mechanism::with_noise(vec![1.0 - f1, f1], |pa, u| pa[0] ^ (u as Value)),
        )
        .unwrap();
        b.mechanism(
            2,
            Mechanism::with_noise(vec![1.0 - f2, f2], |pa, u| pa[0] ^ (u as Value)),
        )
        .unwrap();
        b.mechanism(
            3,
            Mechanism::with_noise(vec![1.0 - f3, f3], |pa, u| (pa[0] | pa[1]) ^ (u as Value)),
        )
        .unwrap();
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Worlds are deterministic in their noise: the same assignment
    /// always yields the same world.
    #[test]
    fn worlds_are_deterministic(scm in arb_scm(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = scm.sample_noise(&mut rng);
        prop_assert_eq!(scm.world(&noise, &[]).unwrap(), scm.world(&noise, &[]).unwrap());
    }

    /// The consistency rule (paper eq. 2): if `X(u) = x` already, then
    /// intervening `X ← x` changes nothing about the world.
    #[test]
    fn consistency_rule(scm in arb_scm(), seed in 0u64..1000, node in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = scm.sample_noise(&mut rng);
        let factual = scm.world(&noise, &[]).unwrap();
        let forced = scm.world(&noise, &[(node, factual[node])]).unwrap();
        prop_assert_eq!(factual, forced);
    }

    /// Interventions pin the target and leave non-descendants untouched.
    #[test]
    fn interventions_respect_graph_structure(
        scm in arb_scm(),
        seed in 0u64..1000,
        value in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = scm.sample_noise(&mut rng);
        let factual = scm.world(&noise, &[]).unwrap();
        // intervene on b (node 1): a and c are non-descendants of b
        let cf = scm.world(&noise, &[(1, value)]).unwrap();
        prop_assert_eq!(cf[1], value, "intervention must pin the target");
        prop_assert_eq!(cf[0], factual[0], "a is upstream");
        prop_assert_eq!(cf[2], factual[2], "c is not downstream of b");
    }

    /// The exact counterfactual engine's interventional distribution
    /// matches a Monte-Carlo simulation of the mutilated model.
    #[test]
    fn exact_engine_matches_simulation(scm in arb_scm()) {
        let engine = causal::CounterfactualEngine::exact(&scm).unwrap();
        let exact = engine.interventional(&[(1, 1)], |w| w[3] == 1).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 30_000;
        let mut hits = 0usize;
        for _ in 0..n {
            let noise = scm.sample_noise(&mut rng);
            let w = scm.world(&noise, &[(1, 1)]).unwrap();
            if w[3] == 1 {
                hits += 1;
            }
        }
        let sim = hits as f64 / n as f64;
        prop_assert!((exact - sim).abs() < 0.03, "exact {exact} vs sim {sim}");
    }

    /// Generated tables always respect the schema's domains.
    #[test]
    fn generated_data_is_in_domain(scm in arb_scm(), seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = scm.generate(200, &mut rng);
        prop_assert_eq!(t.n_rows(), 200);
        for attr in t.schema().attr_ids() {
            let card = t.schema().cardinality(attr).unwrap() as u32;
            for &v in t.column(attr).unwrap() {
                prop_assert!(v < card);
            }
        }
    }
}
