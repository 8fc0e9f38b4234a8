//! Structural causal models with finite discrete exogenous noise.
//!
//! A probabilistic causal model `⟨M, Pr(u)⟩` (paper §2) assigns each
//! endogenous variable `X` a structural equation
//! `F_X : Dom(Pa(X)) × Dom(U_X) → Dom(X)`. We restrict every exogenous
//! variable `U_X` to a *finite discrete* domain with an explicit prior.
//! That restriction loses no generality for finite endogenous domains and
//! buys exact counterfactual inference: a full noise assignment
//! determines the entire world deterministically, so Pearl's three-step
//! procedure reduces to (weighted) enumeration of noise assignments.

use crate::graph::{Dag, NodeId};
use crate::{CausalError, Result};
use rand::Rng;
use std::sync::Arc;
use tabular::{Schema, Table, Value};

/// Deterministic map `(parent values, noise level) → value code`.
pub type MechanismFn = Arc<dyn Fn(&[Value], usize) -> Value + Send + Sync>;

/// The structural equation of one endogenous variable.
#[derive(Clone)]
pub struct Mechanism {
    /// Prior over this variable's exogenous noise levels; must sum to 1.
    pub noise_probs: Vec<f64>,
    /// Deterministic map `(parent values, noise level) → value code`.
    /// Parent values arrive in the order given by [`Dag::parents`].
    pub func: MechanismFn,
}

impl std::fmt::Debug for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mechanism")
            .field("noise_levels", &self.noise_probs.len())
            .finish_non_exhaustive()
    }
}

impl Mechanism {
    /// A mechanism whose output is a deterministic function of its parents
    /// (one trivial noise level).
    pub fn deterministic(func: impl Fn(&[Value]) -> Value + Send + Sync + 'static) -> Self {
        Mechanism {
            noise_probs: vec![1.0],
            func: Arc::new(move |pa, _| func(pa)),
        }
    }

    /// An exogenous (root) categorical variable with the given prior.
    ///
    /// Noise level `u` maps directly to value code `u`.
    pub fn root(prior: Vec<f64>) -> Self {
        Mechanism {
            noise_probs: prior,
            func: Arc::new(|_, u| u as Value),
        }
    }

    /// A mechanism with explicit noise levels and transition function.
    pub fn with_noise(
        noise_probs: Vec<f64>,
        func: impl Fn(&[Value], usize) -> Value + Send + Sync + 'static,
    ) -> Self {
        Mechanism {
            noise_probs,
            func: Arc::new(func),
        }
    }

    /// Number of noise levels.
    pub fn noise_levels(&self) -> usize {
        self.noise_probs.len()
    }
}

/// Rows [`Scm::generate_into`] draws and fills at a time: the block's
/// draws (8 bytes per node and row, 12 KB for six nodes) stay in the L1
/// cache while its columns are filled.
pub const BLOCK_ROWS: usize = 256;

/// A complete structural causal model over a schema.
#[derive(Debug, Clone)]
pub struct Scm {
    schema: Schema,
    graph: Dag,
    mechanisms: Vec<Mechanism>,
    topo: Vec<NodeId>,
    /// What [`ScmBuilder::build`] precomputed for each node, by node id.
    plans: Vec<NodePlan>,
}

/// The sampling cut points and (when the build probed it) the full
/// output grid of one node.
#[derive(Debug, Clone)]
struct NodePlan {
    /// `cuts[i - 1]` is the smallest 53-bit draw `x` for which the
    /// reference float loop ([`float_level`]) picks level `i` or above,
    /// or `2⁵³` when no draw does; a draw's level is `#{c ∈ cuts : c ≤ x}`.
    /// Cut points and draws are held as `f64`, which is exact for every
    /// integer up to `2⁵³`, because `f64` comparisons vectorize where
    /// baseline x86-64 has no 64-bit integer compare.
    cuts: Vec<f64>,
    /// The probe's outputs, cell `u + Σⱼ strides[j] · parentⱼ` holding
    /// `func(parents, u)`; `None` when the grid was too large to probe.
    outputs: Option<Vec<Value>>,
    /// Mixed-radix stride of each parent (in [`Dag::parents`] order).
    strides: Vec<usize>,
}

impl NodePlan {
    /// Draw a noise level: one `next_u64`, the same bits `gen::<f64>()`
    /// would read, through [`NodePlan::level`].
    fn draw<R: Rng>(&self, rng: &mut R) -> usize {
        self.level((rng.next_u64() >> 11) as f64)
    }

    /// The noise level of the 53-bit draw `x`: the cut points at or
    /// below it.
    fn level(&self, x: f64) -> usize {
        self.cuts.iter().map(|&c| usize::from(c <= x)).sum()
    }
}

impl Scm {
    /// The schema of endogenous variables.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The causal diagram.
    pub fn graph(&self) -> &Dag {
        &self.graph
    }

    /// The mechanism of node `v`.
    pub fn mechanism(&self, v: NodeId) -> &Mechanism {
        &self.mechanisms[v]
    }

    /// Total number of joint noise assignments `∏ |Dom(U_X)|`.
    pub fn noise_space_size(&self) -> u128 {
        self.mechanisms
            .iter()
            .map(|m| m.noise_levels() as u128)
            .product()
    }

    /// Draw a joint noise assignment from the prior.
    pub fn sample_noise<R: Rng>(&self, rng: &mut R) -> Vec<usize> {
        self.plans.iter().map(|p| p.draw(rng)).collect()
    }

    /// Prior probability of a joint noise assignment.
    pub fn noise_probability(&self, noise: &[usize]) -> f64 {
        self.mechanisms
            .iter()
            .zip(noise)
            .map(|(m, &u)| m.noise_probs[u])
            .product()
    }

    /// Node `v`'s value given the values of its parents in `values` and
    /// its noise level `u`: a lookup in the probe's grid when the build
    /// kept one, a call of the mechanism otherwise. `parent_buf` is
    /// scratch for the call.
    fn eval(&self, v: NodeId, values: &[Value], u: usize, parent_buf: &mut Vec<Value>) -> Value {
        let plan = &self.plans[v];
        let parents = self.graph.parents(v);
        if let Some(outputs) = &plan.outputs {
            let cell = parents
                .iter()
                .zip(&plan.strides)
                .fold(u, |cell, (&p, &s)| cell + s * values[p] as usize);
            return outputs[cell];
        }
        parent_buf.clear();
        parent_buf.extend(parents.iter().map(|&p| values[p]));
        (self.mechanisms[v].func)(parent_buf, u)
    }

    /// Deterministically compute the world (all endogenous values) induced
    /// by `noise`, with the structural equations of `interventions`
    /// replaced by constants (paper's action step). Pass an empty slice
    /// for the factual world.
    ///
    /// Fails with [`CausalError::NoiseArity`] or
    /// [`CausalError::NoiseOutOfRange`] on a malformed noise assignment,
    /// [`CausalError::UnknownNode`] on an intervention on a node the
    /// model does not have, and [`tabular::TabularError::ValueOutOfDomain`]
    /// on an intervention value (or a mechanism output) outside its
    /// node's domain.
    pub fn world(&self, noise: &[usize], interventions: &[(NodeId, Value)]) -> Result<Vec<Value>> {
        let n_nodes = self.mechanisms.len();
        if noise.len() != n_nodes {
            return Err(CausalError::NoiseArity {
                expected: n_nodes,
                got: noise.len(),
            });
        }
        for (node, (&level, m)) in noise.iter().zip(&self.mechanisms).enumerate() {
            if level >= m.noise_levels() {
                return Err(CausalError::NoiseOutOfRange {
                    node,
                    level,
                    levels: m.noise_levels(),
                });
            }
        }
        for &(node, x) in interventions {
            if node >= n_nodes {
                return Err(CausalError::UnknownNode { node, n_nodes });
            }
            self.schema.check_value(tabular::AttrId(node as u32), x)?;
        }
        let mut values = vec![0 as Value; n_nodes];
        let mut parent_buf: Vec<Value> = Vec::with_capacity(8);
        for &v in &self.topo {
            values[v] = match interventions.iter().find(|&&(n, _)| n == v) {
                Some(&(_, x)) => x,
                None => {
                    let x = self.eval(v, &values, noise[v], &mut parent_buf);
                    self.schema.check_value(tabular::AttrId(v as u32), x)?;
                    x
                }
            };
        }
        Ok(values)
    }

    /// Generate an observational dataset of `n` rows: allocate the
    /// columns, fill them with [`Scm::generate_into`], and let
    /// [`Table::from_columns`] check them against their domains.
    pub fn generate<R: Rng>(&self, n: usize, rng: &mut R) -> Table {
        let mut columns: Vec<Vec<Value>> = (0..self.mechanisms.len()).map(|_| vec![0; n]).collect();
        let mut slices: Vec<&mut [Value]> = columns.iter_mut().map(Vec::as_mut_slice).collect();
        self.generate_into(&mut slices, rng)
            .expect("one column of n rows per node");
        Table::from_columns(self.schema.clone(), columns)
            .expect("SCM produced a row outside its schema")
    }

    /// Overwrite `columns` (one slice per node, in node order, all of
    /// one length) with that many observational rows. Writing into
    /// caller-owned slices lets a large table be generated in disjoint
    /// pieces of its final columns, with no copy to concatenate them.
    ///
    /// Rows are made [`BLOCK_ROWS`] at a time. A block first takes its
    /// 53-bit noise draws in row order, every node's in node order, so
    /// the RNG stream, and so the table, is the one a row-at-a-time
    /// loop over the reference float loop and per-row mechanism calls
    /// would give. Then, in topological order, each node's column of
    /// the block is filled from its parents' columns: the draw's level
    /// from the cut points, and the value from the probe's grid (or one
    /// mechanism call per row, for nodes the build did not probe).
    /// Values are not checked against their domains here;
    /// [`Table::from_columns`] does that once for the whole table.
    ///
    /// Fails with [`CausalError::ColumnArity`] when there is not one
    /// slice per node and [`CausalError::RaggedColumns`] when the slices
    /// differ in length; `columns` and `rng` are untouched then.
    pub fn generate_into<R: Rng>(&self, columns: &mut [&mut [Value]], rng: &mut R) -> Result<()> {
        let n_nodes = self.mechanisms.len();
        if columns.len() != n_nodes {
            return Err(CausalError::ColumnArity {
                expected: n_nodes,
                got: columns.len(),
            });
        }
        let n = columns.first().map_or(0, |c| c.len());
        if let Some((column, c)) = columns.iter().enumerate().find(|(_, c)| c.len() != n) {
            return Err(CausalError::RaggedColumns {
                column,
                len: c.len(),
                expected: n,
            });
        }
        let block = BLOCK_ROWS.min(n);
        // draws[v * block + r] is node v's draw for row r of the block
        let mut draws = vec![0f64; block * n_nodes];
        let mut cells = vec![0usize; block];
        let mut parent_buf: Vec<Value> = Vec::with_capacity(8);
        for start in (0..n).step_by(BLOCK_ROWS) {
            let rows = start..n.min(start + BLOCK_ROWS);
            for r in 0..rows.len() {
                for v in 0..n_nodes {
                    draws[v * block + r] = (rng.next_u64() >> 11) as f64;
                }
            }
            for &v in &self.topo {
                let plan = &self.plans[v];
                let parents = self.graph.parents(v);
                // a draw's level is the number of cut points at or below it
                let cells = &mut cells[..rows.len()];
                cells.fill(0);
                for &cut in &plan.cuts {
                    for (cell, &x) in cells.iter_mut().zip(&draws[v * block..]) {
                        *cell += usize::from(cut <= x);
                    }
                }
                // a DAG node is not its own parent, so its column can
                // be written while its parents' columns are read
                let column = std::mem::take(&mut columns[v]);
                let out = &mut column[rows.clone()];
                match &plan.outputs {
                    Some(outputs) => {
                        for (&p, &stride) in parents.iter().zip(&plan.strides) {
                            for (cell, &x) in cells.iter_mut().zip(&columns[p][rows.clone()]) {
                                *cell += stride * x as usize;
                            }
                        }
                        for (x, &cell) in out.iter_mut().zip(cells.iter()) {
                            *x = outputs[cell];
                        }
                    }
                    None => {
                        let func = &self.mechanisms[v].func;
                        for ((row, x), &u) in rows.clone().zip(out.iter_mut()).zip(cells.iter()) {
                            parent_buf.clear();
                            parent_buf.extend(parents.iter().map(|&p| columns[p][row]));
                            *x = func(&parent_buf, u);
                        }
                    }
                }
                columns[v] = column;
            }
        }
        Ok(())
    }
}

/// The noise level the reference float loop picks for the 53-bit draw
/// `x`, i.e. for the uniform `x · 2⁻⁵³` that `gen::<f64>()` returns
/// from the same `next_u64`. The level is a monotone step function of
/// `x`, which is what lets [`ScmBuilder::build`] replace the loop by
/// cut points.
fn float_level(probs: &[f64], x: u64) -> usize {
    let mut r = x as f64 * (1.0 / (1u64 << 53) as f64);
    for (i, &p) in probs.iter().enumerate() {
        if r < p {
            return i;
        }
        r -= p;
    }
    probs.len() - 1 // numeric slack: return the last level
}

/// The cut points of `probs`: for each level `i ≥ 1`, the smallest
/// `x < 2⁵³` with `float_level(probs, x) ≥ i`, by binary search (`2⁵³`
/// when there is none), as an exact `f64`.
fn cut_points(probs: &[f64]) -> Vec<f64> {
    (1..probs.len())
        .map(|level| {
            let (mut lo, mut hi) = (0u64, 1u64 << 53);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if float_level(probs, mid) >= level {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo as f64
        })
        .collect()
}

/// Incremental [`Scm`] constructor that validates as it goes.
pub struct ScmBuilder {
    schema: Schema,
    graph: Dag,
    mechanisms: Vec<Option<Mechanism>>,
}

impl ScmBuilder {
    /// Start building an SCM over `schema`; the graph starts edgeless and
    /// every mechanism unset.
    pub fn new(schema: Schema) -> Self {
        let n = schema.len();
        ScmBuilder {
            schema,
            graph: Dag::new(n),
            mechanisms: (0..n).map(|_| None).collect(),
        }
    }

    /// Add the causal edge `from → to`.
    pub fn edge(&mut self, from: NodeId, to: NodeId) -> Result<&mut Self> {
        self.graph.add_edge(from, to)?;
        Ok(self)
    }

    /// Set the mechanism of node `v`.
    pub fn mechanism(&mut self, v: NodeId, m: Mechanism) -> Result<&mut Self> {
        if v >= self.mechanisms.len() {
            return Err(CausalError::UnknownNode {
                node: v,
                n_nodes: self.mechanisms.len(),
            });
        }
        self.mechanisms[v] = Some(m);
        Ok(self)
    }

    /// Validate and finish. Checks: every node has a mechanism, every
    /// noise prior is a distribution, and every mechanism's output stays
    /// inside its domain on a probe of all parent-value/noise combinations
    /// (probed only when the local grid is small).
    ///
    /// The model keeps what the checks compute: each prior's cut points,
    /// which [`Scm::generate`] and [`Scm::sample_noise`] draw from, and
    /// each probed grid of outputs, which [`Scm::world`] and
    /// [`Scm::generate`] read instead of calling the mechanism.
    pub fn build(self) -> Result<Scm> {
        let mut mechanisms = Vec::with_capacity(self.mechanisms.len());
        for (v, m) in self.mechanisms.into_iter().enumerate() {
            let m = m.ok_or_else(|| {
                CausalError::InvalidScm(format!(
                    "node {v} ({}) has no mechanism",
                    self.schema.name(tabular::AttrId(v as u32))
                ))
            })?;
            if m.noise_probs.is_empty() {
                return Err(CausalError::InvalidScm(format!(
                    "node {v}: empty noise prior"
                )));
            }
            let sum: f64 = m.noise_probs.iter().sum();
            if (sum - 1.0).abs() > 1e-9 || m.noise_probs.iter().any(|&p| !(0.0..=1.0).contains(&p))
            {
                return Err(CausalError::InvalidScm(format!(
                    "node {v}: noise prior is not a distribution (sum = {sum})"
                )));
            }
            mechanisms.push(m);
        }

        // Probe mechanisms for domain violations on small local grids,
        // keeping the outputs.
        let cardinality = |v: NodeId| {
            self.schema
                .cardinality(tabular::AttrId(v as u32))
                .map_err(CausalError::Tabular)
        };
        let mut plans = Vec::with_capacity(mechanisms.len());
        for (v, m) in mechanisms.iter().enumerate() {
            let parents = self.graph.parents(v);
            let card_out = cardinality(v)?;
            let cards = parents
                .iter()
                .map(|&p| cardinality(p))
                .collect::<Result<Vec<usize>>>()?;
            let levels = m.noise_levels();
            let grid = cards
                .iter()
                .fold(levels as u128, |g, &c| g.saturating_mul(c as u128));
            let mut plan = NodePlan {
                cuts: cut_points(&m.noise_probs),
                outputs: None,
                strides: Vec::new(),
            };
            if grid <= 100_000 {
                // larger grids are too large to probe exhaustively; trust
                // the caller and call the mechanism at evaluation time
                let mut outputs = Vec::with_capacity(grid as usize);
                let mut parent_values = vec![0 as Value; parents.len()];
                for cell in 0..grid as usize {
                    let u = cell % levels;
                    let mut rest = cell / levels;
                    for (pv, &c) in parent_values.iter_mut().zip(&cards) {
                        *pv = (rest % c) as Value;
                        rest /= c;
                    }
                    let out = (m.func)(&parent_values, u);
                    if out as usize >= card_out {
                        return Err(CausalError::InvalidScm(format!(
                            "node {v}: mechanism output {out} out of domain (cardinality {card_out}) for parents {parent_values:?}, noise {u}"
                        )));
                    }
                    outputs.push(out);
                }
                let mut stride = levels;
                for &c in &cards {
                    plan.strides.push(stride);
                    stride *= c;
                }
                plan.outputs = Some(outputs);
            }
            plans.push(plan);
        }

        let topo = self.graph.topological_order();
        Ok(Scm {
            schema: self.schema,
            graph: self.graph,
            mechanisms,
            topo,
            plans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use tabular::{Context, Domain};

    /// X → Y where X ~ Bernoulli(0.3) and Y = X XOR noise(0.1).
    fn xor_scm() -> Scm {
        let mut schema = Schema::new();
        schema.push("x", Domain::boolean());
        schema.push("y", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        b.edge(0, 1).unwrap();
        b.mechanism(0, Mechanism::root(vec![0.7, 0.3])).unwrap();
        b.mechanism(
            1,
            Mechanism::with_noise(vec![0.9, 0.1], |pa, u| pa[0] ^ (u as Value)),
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn sampling_matches_prior() {
        let scm = xor_scm();
        let mut rng = StdRng::seed_from_u64(1);
        let t = scm.generate(20_000, &mut rng);
        let p_x = t.probability(&Context::of([(tabular::AttrId(0), 1)]));
        assert!((p_x - 0.3).abs() < 0.02, "Pr(x=1) = {p_x}");
        // Pr(y=1) = Pr(x=1)·0.9 + Pr(x=0)·0.1 = 0.27 + 0.07 = 0.34
        let p_y = t.probability(&Context::of([(tabular::AttrId(1), 1)]));
        assert!((p_y - 0.34).abs() < 0.02, "Pr(y=1) = {p_y}");
    }

    #[test]
    fn generate_into_rejects_misshapen_columns_untouched() {
        let scm = xor_scm();
        let mut rng = StdRng::seed_from_u64(3);
        let (mut x, mut y, mut z) = ([7 as Value; 4], [7 as Value; 4], [7 as Value; 3]);
        assert_eq!(
            scm.generate_into(&mut [&mut x[..]], &mut rng),
            Err(CausalError::ColumnArity {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            scm.generate_into(&mut [&mut x[..], &mut y[..], &mut z[..]], &mut rng),
            Err(CausalError::ColumnArity {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(
            scm.generate_into(&mut [&mut x[..], &mut z[..]], &mut rng),
            Err(CausalError::RaggedColumns {
                column: 1,
                len: 3,
                expected: 4
            })
        );
        assert_eq!((x, z), ([7; 4], [7; 3]), "a rejected call writes nothing");
        // nor does it draw: the stream still matches a fresh one
        let mut fresh = StdRng::seed_from_u64(3);
        assert_eq!(rng.next_u64(), fresh.next_u64());
        // well-shaped slices get exactly the rows `generate` gives
        scm.generate_into(&mut [&mut x[..], &mut y[..]], &mut StdRng::seed_from_u64(8))
            .unwrap();
        let t = scm.generate(4, &mut StdRng::seed_from_u64(8));
        assert_eq!(t.columns(), [x.to_vec(), y.to_vec()]);
    }

    #[test]
    fn world_is_deterministic_given_noise() {
        let scm = xor_scm();
        assert_eq!(scm.world(&[1, 0], &[]).unwrap(), vec![1, 1]);
        assert_eq!(scm.world(&[1, 1], &[]).unwrap(), vec![1, 0]);
        assert_eq!(scm.world(&[0, 1], &[]).unwrap(), vec![0, 1]);
    }

    #[test]
    fn interventions_override_mechanisms() {
        let scm = xor_scm();
        // do(x = 0) with noise that would have made x = 1
        let w = scm.world(&[1, 0], &[(0, 0)]).unwrap();
        assert_eq!(w, vec![0, 0]);
        // consistency rule (paper eq. 2): intervening with the factual
        // value changes nothing
        let factual = scm.world(&[1, 0], &[]).unwrap();
        let forced = scm.world(&[1, 0], &[(0, factual[0])]).unwrap();
        assert_eq!(factual, forced);
    }

    #[test]
    fn world_rejects_interventions_outside_the_model() {
        let scm = xor_scm();
        assert_eq!(
            scm.world(&[1, 0], &[(2, 0)]),
            Err(CausalError::UnknownNode {
                node: 2,
                n_nodes: 2
            })
        );
        assert!(matches!(
            scm.world(&[1, 0], &[(0, 2)]),
            Err(CausalError::Tabular(
                tabular::TabularError::ValueOutOfDomain {
                    attr: 0,
                    value: 2,
                    ..
                }
            ))
        ));
    }

    #[test]
    fn world_rejects_malformed_noise() {
        let scm = xor_scm();
        assert_eq!(
            scm.world(&[1], &[]),
            Err(CausalError::NoiseArity {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            scm.world(&[1, 0, 0], &[]),
            Err(CausalError::NoiseArity {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(
            scm.world(&[0, 2], &[]),
            Err(CausalError::NoiseOutOfRange {
                node: 1,
                level: 2,
                levels: 2
            })
        );
    }

    #[test]
    fn noise_space_size() {
        let scm = xor_scm();
        assert_eq!(scm.noise_space_size(), 4);
    }

    #[test]
    fn builder_rejects_incomplete_models() {
        let mut schema = Schema::new();
        schema.push("x", Domain::boolean());
        let b = ScmBuilder::new(schema);
        assert!(matches!(b.build(), Err(CausalError::InvalidScm(_))));
    }

    #[test]
    fn builder_rejects_bad_priors() {
        let mut schema = Schema::new();
        schema.push("x", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        b.mechanism(0, Mechanism::root(vec![0.5, 0.6])).unwrap();
        assert!(matches!(b.build(), Err(CausalError::InvalidScm(_))));
    }

    #[test]
    fn builder_probes_domain_violations() {
        let mut schema = Schema::new();
        schema.push("x", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        // outputs 5 on a boolean domain
        b.mechanism(0, Mechanism::deterministic(|_| 5)).unwrap();
        assert!(matches!(b.build(), Err(CausalError::InvalidScm(_))));
    }

    #[test]
    fn categorical_sampler_is_distributed() {
        let mut schema = Schema::new();
        schema.push("x", Domain::categorical(["a", "b", "c"]));
        let mut b = ScmBuilder::new(schema);
        let probs = [0.2, 0.5, 0.3];
        b.mechanism(0, Mechanism::root(probs.to_vec())).unwrap();
        let scm = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[scm.sample_noise(&mut rng)[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / 30_000.0;
            assert!((freq - probs[i]).abs() < 0.02, "level {i}: {freq}");
        }
    }
}
