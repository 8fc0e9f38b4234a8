//! The SCM sampler against its row-at-a-time reference.
//!
//! `Scm` draws noise levels from integer cut points and evaluates
//! mechanisms through the output grids `ScmBuilder::build` probes. Both
//! must reproduce the float loop over the prior and the direct mechanism
//! calls bit for bit, on every builtin model and on edge-case priors.
//! `Scm::world` must also reject interventions and noise outside the
//! model instead of reading past a grid.

use lewis::causal::scm::BLOCK_ROWS;
use lewis::causal::{CausalError, CounterfactualEngine, Mechanism, Scm, ScmBuilder};
use lewis::datasets::{
    AdultDataset, CompasDataset, DrugDataset, GermanDataset, GermanSynDataset, ScalableDataset,
};
use lewis::tabular::{AttrId, Domain, Schema, Table, TabularError, Value};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// `2⁵³`: the number of distinct uniforms `gen::<f64>()` returns.
const DRAWS_53: u64 = 1 << 53;

/// The float loop the cut points replace: the level a uniform `r` picks.
fn float_loop(probs: &[f64], mut r: f64) -> usize {
    for (i, &p) in probs.iter().enumerate() {
        if r < p {
            return i;
        }
        r -= p;
    }
    probs.len() - 1
}

/// The float loop on the uniform `gen::<f64>()` makes of the 53-bit draw `x`.
fn float_level(probs: &[f64], x: u64) -> usize {
    float_loop(probs, x as f64 * (1.0 / DRAWS_53 as f64))
}

/// The smallest `x` at which the float loop picks `level` or above
/// (`2⁵³` if it never does). The loop is monotone in `x`.
fn reference_cut(probs: &[f64], level: usize) -> u64 {
    let (mut lo, mut hi) = (0, DRAWS_53);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if float_level(probs, mid) >= level {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// An RNG whose every `gen::<f64>()` is `x · 2⁻⁵³`.
struct Fixed(u64);

impl RngCore for Fixed {
    fn next_u64(&mut self) -> u64 {
        self.0 << 11
    }
}

fn builtin_scms() -> Vec<(&'static str, Scm)> {
    vec![
        ("german_syn", GermanSynDataset::standard().scm()),
        (
            "german_syn_non_monotone",
            GermanSynDataset::non_monotone(0.2).scm(),
        ),
        ("german", GermanDataset::scm()),
        ("adult", AdultDataset::scm()),
        ("compas", CompasDataset::scm()),
        ("drug", DrugDataset::scm()),
        ("scalable", ScalableDataset::new(20).scm()),
    ]
}

/// Priors the builtins do not have: a zero-probability level in the
/// middle and at the end, a prior short of 1 by 5·10⁻¹⁰ (draws past its
/// sum take the loop's last-level slack), and a single level.
const EDGE_PRIORS: [&[f64]; 3] = [&[0.3, 0.0, 0.7, 0.0], &[0.5, 0.25, 0.25 - 5e-10], &[1.0]];

/// One independent root node per edge prior.
fn edge_prior_scm() -> Scm {
    let mut schema = Schema::new();
    for (i, prior) in EDGE_PRIORS.iter().enumerate() {
        schema.push(
            format!("u{i}"),
            Domain::categorical((0..prior.len()).map(|l| format!("l{l}"))),
        );
    }
    let mut b = ScmBuilder::new(schema);
    for (i, prior) in EDGE_PRIORS.iter().enumerate() {
        b.mechanism(i, Mechanism::root(prior.to_vec())).unwrap();
    }
    b.build().unwrap()
}

fn all_scms() -> Vec<(&'static str, Scm)> {
    let mut scms = builtin_scms();
    scms.push(("edge_priors", edge_prior_scm()));
    scms
}

#[test]
fn cut_point_draws_match_the_float_loop_around_every_cut() {
    for (name, scm) in all_scms() {
        let n_nodes = scm.schema().len();
        for v in 0..n_nodes {
            let probs = &scm.mechanism(v).noise_probs;
            let mut xs = vec![0, DRAWS_53 - 1];
            for level in 1..probs.len() {
                let cut = reference_cut(probs, level);
                xs.extend((cut.saturating_sub(2)..=cut + 2).filter(|&x| x < DRAWS_53));
            }
            for x in xs {
                let drawn = scm.sample_noise(&mut Fixed(x))[v];
                assert_eq!(drawn, float_level(probs, x), "{name} node {v} at x = {x}");
            }
        }
    }
}

#[test]
fn edge_priors_take_the_paths_they_are_meant_to() {
    let [zeros, short, one] = EDGE_PRIORS;
    // the zero-probability middle level is never drawn
    assert_eq!(reference_cut(zeros, 1), reference_cut(zeros, 2));
    // the last draw is past the short prior's sum: the loop's slack
    let last = (DRAWS_53 - 1) as f64 / DRAWS_53 as f64;
    assert!(last >= short.iter().sum::<f64>());
    assert_eq!(float_level(short, DRAWS_53 - 1), 2);
    // a single level has no cut at all
    assert_eq!(float_level(one, DRAWS_53 - 1), 0);
    let scm = edge_prior_scm();
    assert_eq!(
        scm.sample_noise(&mut Fixed(DRAWS_53 - 1)),
        vec![float_level(zeros, DRAWS_53 - 1), 2, 0]
    );
}

#[test]
fn cut_point_draws_match_the_float_loop_on_a_million_seeded_draws() {
    for (seed, (name, scm)) in all_scms().into_iter().enumerate() {
        let n_nodes = scm.schema().len();
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let mut reference = rng.clone();
        let mut draws = 0;
        while draws < 1_000_000 {
            let noise = scm.sample_noise(&mut rng);
            for (v, &level) in noise.iter().enumerate() {
                let r: f64 = reference.gen();
                assert_eq!(
                    level,
                    float_loop(&scm.mechanism(v).noise_probs, r),
                    "{name} node {v}"
                );
            }
            draws += n_nodes;
        }
        assert_eq!(
            rng.next_u64(),
            reference.next_u64(),
            "{name}: streams diverged"
        );
    }
}

/// Row-at-a-time generation: float-loop draws in node order, direct
/// mechanism calls in topological order, `push_row`.
fn reference_generate(scm: &Scm, n: usize, rng: &mut StdRng) -> Table {
    let n_nodes = scm.schema().len();
    let topo = scm.graph().topological_order();
    let mut table = Table::new(scm.schema().clone());
    for _ in 0..n {
        let noise: Vec<usize> = (0..n_nodes)
            .map(|v| float_loop(&scm.mechanism(v).noise_probs, rng.gen()))
            .collect();
        let mut row = vec![0 as Value; n_nodes];
        for &v in &topo {
            let parents: Vec<Value> = scm.graph().parents(v).iter().map(|&p| row[p]).collect();
            row[v] = (scm.mechanism(v).func)(&parents, noise[v]);
        }
        table.push_row(&row).unwrap();
    }
    table
}

/// Whether `ScmBuilder::build`'s probe skipped node `v` (its local grid
/// has more than 100,000 cells), leaving it to mechanism calls.
fn probe_skips(scm: &Scm, v: usize) -> bool {
    let parent_cells: u128 = scm
        .graph()
        .parents(v)
        .iter()
        .map(|&p| scm.schema().cardinality(AttrId(p as u32)).unwrap() as u128)
        .product();
    parent_cells * scm.mechanism(v).noise_levels() as u128 > 100_000
}

#[test]
fn generation_matches_the_row_at_a_time_reference() {
    for (seed, (name, scm)) in builtin_scms().into_iter().enumerate() {
        // the edges of `generate_into`'s blocks, and several blocks
        // plus a remainder
        let sizes = [
            0,
            1,
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            3 * BLOCK_ROWS + 17,
            5_000,
        ];
        for n in sizes {
            let fast = scm.generate(n, &mut StdRng::seed_from_u64(seed as u64));
            let slow = reference_generate(&scm, n, &mut StdRng::seed_from_u64(seed as u64));
            assert_eq!(fast.n_rows(), n, "{name}");
            assert!(
                fast == slow,
                "{name}: {n} generated rows differ from the reference"
            );
        }
    }
    // the comparison covers both evaluation paths
    for (name, scm) in [
        ("german", GermanDataset::scm()),
        ("adult", AdultDataset::scm()),
    ] {
        let n_nodes = scm.schema().len();
        assert!(
            (0..n_nodes).any(|v| probe_skips(&scm, v)),
            "{name}: every node probed"
        );
        assert!(
            (0..n_nodes).any(|v| !probe_skips(&scm, v)),
            "{name}: no node probed"
        );
    }
}

#[test]
fn an_out_of_domain_intervention_is_an_error() {
    let scm = GermanSynDataset::standard().scm();
    let engine = CounterfactualEngine::exact(&scm).unwrap();
    // age has 3 values
    let out_of_domain = |r| {
        matches!(
            r,
            Err(CausalError::Tabular(TabularError::ValueOutOfDomain {
                attr: 0,
                value: 7,
                ..
            }))
        )
    };
    assert!(out_of_domain(engine.query(
        |_| true,
        &[(0, 7)],
        |w| w[5] >= 5
    )));
    assert!(out_of_domain(engine.joint_query(
        |_| true,
        &[(0, 7)],
        |_| true,
        &[],
        |_| true
    )));
    assert!(out_of_domain(
        engine.interventional(&[(0, 7)], |w| w[5] >= 5)
    ));
}

#[test]
fn an_intervention_on_an_unknown_node_is_an_error() {
    let scm = GermanSynDataset::standard().scm();
    let engine = CounterfactualEngine::exact(&scm).unwrap();
    let unknown = Err(CausalError::UnknownNode {
        node: 99,
        n_nodes: 6,
    });
    assert_eq!(engine.query(|_| true, &[(99, 1)], |w| w[5] >= 5), unknown);
    assert_eq!(engine.interventional(&[(99, 1)], |w| w[5] >= 5), unknown);
}

#[test]
fn out_of_range_noise_is_an_error() {
    let scm = GermanSynDataset::standard().scm();
    assert_eq!(
        scm.world(&[0, 0, 50, 0, 0, 0], &[]),
        Err(CausalError::NoiseOutOfRange {
            node: 2,
            level: 50,
            levels: scm.mechanism(2).noise_levels(),
        })
    );
    assert_eq!(
        scm.world(&[0, 0, 0], &[]),
        Err(CausalError::NoiseArity {
            expected: 6,
            got: 3
        })
    );
}
