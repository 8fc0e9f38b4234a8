//! Seeded request generation.
//!
//! Every request the benchmark sends is drawn here from the workload
//! seed and the served engine's own table (so contexts and rows are in
//! domain and mostly supported). The program under test only ever sees
//! the generated requests.

use lewis_core::{Engine, ExplainRequest, RecourseOptions};
use lewis_serve::wire;
use tabular::{AttrId, Context, Value};

/// splitmix64: small, seedable, and good enough to spread queries.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % (n.max(1) as u64)) as usize
    }
}

/// The four query kinds of the paper's taxonomy, in mix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Global,
    Contextual,
    Local,
    Recourse,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Global, Kind::Contextual, Kind::Local, Kind::Recourse];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Global => "global",
            Kind::Contextual => "contextual",
            Kind::Local => "local",
            Kind::Recourse => "recourse",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One explain request with its wire body.
#[derive(Debug, Clone)]
pub struct Query {
    pub kind: Kind,
    pub request: ExplainRequest,
    pub body: String,
}

impl Query {
    pub fn new(kind: Kind, request: ExplainRequest) -> Query {
        let body = wire::request_to_json(&request).to_json();
        Query {
            kind,
            request,
            body,
        }
    }
}

/// A finite set of distinct queries a stream samples from; small enough
/// that a warm-up can answer every one of them.
pub struct Pool {
    pub queries: Vec<Query>,
    by_kind: [Vec<usize>; 4],
}

impl Pool {
    fn push(&mut self, query: Query) {
        self.by_kind[query.kind.index()].push(self.queries.len());
        self.queries.push(query);
    }
}

/// The actionable sets recourse queries use: a few sets over the
/// german_syn credit attributes a person can change.
pub fn actionable_sets(engine: &Engine) -> Vec<Vec<AttrId>> {
    let schema = engine.table().schema();
    let attr = |name: &str| {
        schema
            .require(name)
            .expect("the german_syn schema has the credit attributes")
    };
    vec![
        vec![attr("status")],
        vec![attr("saving")],
        vec![attr("status"), attr("saving"), attr("housing")],
    ]
}

fn random_row(engine: &Engine, rng: &mut Rng) -> Vec<Value> {
    let table = engine.table();
    table
        .row(rng.below(table.n_rows()))
        .expect("row index drawn below n_rows")
}

fn random_feature(engine: &Engine, rng: &mut Rng) -> AttrId {
    let features = engine.features();
    features[rng.below(features.len())]
}

/// A contextual probe of one feature inside a sub-population of
/// `width` other features, with values taken from a real row so the
/// context has support.
fn contextual(engine: &Engine, rng: &mut Rng, width: usize) -> Query {
    let attr = random_feature(engine, rng);
    let row = random_row(engine, rng);
    let mut others: Vec<AttrId> = engine
        .features()
        .iter()
        .copied()
        .filter(|&a| a != attr)
        .collect();
    let mut pairs = Vec::with_capacity(width);
    while pairs.len() < width && !others.is_empty() {
        let a = others.swap_remove(rng.below(others.len()));
        pairs.push((a, row[a.index()]));
    }
    Query::new(
        Kind::Contextual,
        ExplainRequest::Contextual {
            attr,
            k: Context::of(pairs),
        },
    )
}

fn local(engine: &Engine, rng: &mut Rng) -> Query {
    Query::new(
        Kind::Local,
        ExplainRequest::Local {
            row: random_row(engine, rng),
        },
    )
}

fn recourse(engine: &Engine, rng: &mut Rng, actionable: Vec<AttrId>) -> Query {
    Query::new(
        Kind::Recourse,
        ExplainRequest::Recourse {
            row: random_row(engine, rng),
            actionable,
            opts: RecourseOptions::default(),
        },
    )
}

/// A pool of distinct queries: the global query, `contextual`
/// one-attribute-context probes, `locals` table rows and `recourses`
/// recourse rows spread over [`actionable_sets`].
pub fn pool(
    engine: &Engine,
    seed: u64,
    contextuals: usize,
    locals: usize,
    recourses: usize,
) -> Pool {
    let mut rng = Rng::new(seed ^ 0x9001);
    let mut pool = Pool {
        queries: Vec::new(),
        by_kind: Default::default(),
    };
    pool.push(Query::new(Kind::Global, ExplainRequest::Global));
    for _ in 0..contextuals {
        pool.push(contextual(engine, &mut rng, 1));
    }
    for _ in 0..locals {
        pool.push(local(engine, &mut rng));
    }
    let sets = actionable_sets(engine);
    for i in 0..recourses {
        pool.push(recourse(engine, &mut rng, sets[i % sets.len()].clone()));
    }
    pool
}

/// `n` pool indices whose kinds follow `mix` (global : contextual :
/// local : recourse weights); within a kind the pick is uniform.
pub fn stream(pool: &Pool, mix: [u32; 4], n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5717);
    let total: u32 = mix.iter().sum();
    (0..n)
        .map(|_| {
            let mut pick = rng.below(total as usize) as u32;
            let mut kind = 0;
            while pick >= mix[kind] {
                pick -= mix[kind];
                kind += 1;
            }
            let candidates = &pool.by_kind[kind];
            candidates[rng.below(candidates.len())]
        })
        .collect()
}

/// The cold workload's fixed list: three local queries on table rows to
/// one contextual probe in a two- or three-attribute context (kept off
/// 1:1 so the median falls inside one kind's latencies, not in the gap
/// between them). A
/// query is redrawn (a bounded number of times) when an earlier one has
/// the same body or, for locals, the same feature values, so nearly
/// every query is a cold miss and all do comparable work.
pub fn cold_list(engine: &Engine, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0xC01D);
    let mut seen = std::collections::HashSet::new();
    let features = engine.features().to_vec();
    (0..n)
        .map(|i| {
            let mut query = None;
            for _ in 0..64 {
                let q = if i % 4 != 3 {
                    local(engine, &mut rng)
                } else {
                    let width = 2 + rng.below(2);
                    contextual(engine, &mut rng, width)
                };
                let key = match &q.request {
                    ExplainRequest::Local { row } => {
                        format!(
                            "local {:?}",
                            features.iter().map(|a| row[a.index()]).collect::<Vec<_>>()
                        )
                    }
                    _ => q.body.clone(),
                };
                let fresh = seen.insert(key);
                query = Some(q);
                if fresh {
                    break;
                }
            }
            query.expect("at least one draw")
        })
        .collect()
}

/// Append batches for the writer lane: rows resampled from the base
/// table (full schema rows, prediction cell included), so every batch
/// is in domain.
pub fn append_batches(
    engine: &Engine,
    seed: u64,
    batches: usize,
    rows: usize,
) -> Vec<Vec<Vec<Value>>> {
    let mut rng = Rng::new(seed ^ 0xA99E);
    (0..batches)
        .map(|_| (0..rows).map(|_| random_row(engine, &mut rng)).collect())
        .collect()
}

/// The `POST …/rows` body for one batch.
pub fn rows_body(rows: &[Vec<Value>]) -> String {
    let mut body = String::from("{\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&v.to_string());
        }
        body.push(']');
    }
    body.push_str("]}");
    body
}
