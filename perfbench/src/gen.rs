//! Seeded workload inputs: graphs (as edge-list text), statement texts,
//! ad-hoc query texts and mutation batches.
//!
//! Everything here is a pure function of `(workload, seed, size)`: the same
//! seed yields byte-identical inputs. The server only ever receives these
//! generated inputs.

use ecrpq_bench::workloads::{data_complexity_graph, data_queries};
use ecrpq_graph::generators;
use ecrpq_graph::prng::SplitMix64;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Catalog name of the workload graph.
pub const GRAPH: &str = "g";
/// Runs per `batch` request in `point_reads`.
pub const BATCH_RUNS: usize = 16;
/// Edges per `add_edges`/`remove_edges` request in `live_updates`.
pub const BATCH_EDGES: usize = 32;
/// Statement names the ad-hoc `prepare`s rotate through, per connection, so
/// the registry stays bounded.
pub const ADHOC_NAMES: usize = 4;
/// Distinct mutation batches the `live_updates` writer cycles through.
pub const LIVE_BATCHES: usize = 8;
/// Writes between overlay merges in `live_updates`.
pub const WRITES_PER_MERGE: usize = 32;

/// One `(source, label, target)` edge triple.
pub type Triple = (String, String, String);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cheap prepared reads on a small graph: the serve stack dominates.
    PointReads,
    /// Relation-atom ECRPQs on a mid-size graph opened from a snapshot: the
    /// engine dominates.
    AnalyticQueries,
    /// Edge batches written beside maintained reads on a large graph.
    LiveUpdates,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::PointReads, Workload::AnalyticQueries, Workload::LiveUpdates];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointReads => "point_reads",
            Workload::AnalyticQueries => "analytic_queries",
            Workload::LiveUpdates => "live_updates",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A `run` mode of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Head-node tuples.
    Nodes,
    /// One Boolean answer.
    Boolean,
    /// Head tuples with witness paths.
    Paths,
}

impl Mode {
    /// The protocol's name of the mode.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Nodes => "nodes",
            Mode::Boolean => "boolean",
            Mode::Paths => "paths",
        }
    }
}

/// A statement prepared at set-up and run during the measured window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Statement {
    /// Registry name.
    pub name: String,
    /// Query text.
    pub text: String,
    /// Mode it is run in.
    pub mode: Mode,
}

/// Instance size: `Full` is what the benchmark measures, `Tiny` keeps the
/// tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A smoke-test size.
    Tiny,
}

/// Everything one workload run sends to the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The seed the inputs were made from.
    pub seed: u64,
    /// The base graph as edge-list text.
    pub edges: String,
    /// Statements prepared at set-up.
    pub statements: Vec<Statement>,
    /// Mutation batches (edge triples absent from the base graph).
    pub batches: Vec<Vec<Triple>>,
    /// Live-overlay merge threshold (pending edge operations).
    pub merge_threshold: usize,
    /// Client connections (= client threads) of the closed loop.
    pub connections: usize,
}

/// Graph nodes of each workload at `size`.
fn nodes(workload: Workload, size: Size) -> usize {
    match (workload, size) {
        (Workload::PointReads, Size::Full) => 400,
        (Workload::PointReads, Size::Tiny) => 40,
        (Workload::AnalyticQueries, Size::Full) => 2_000,
        (Workload::AnalyticQueries, Size::Tiny) => 200,
        (Workload::LiveUpdates, Size::Full) => 20_000,
        (Workload::LiveUpdates, Size::Tiny) => 500,
    }
}

/// The seeded inputs of `workload`.
pub fn inputs(workload: Workload, seed: u64, size: Size) -> Inputs {
    let n = nodes(workload, size);
    // Each workload draws from its own stream, so seeds are independent
    // across workloads.
    let mut rng = SplitMix64::seed_from_u64(seed ^ (0x9e37_79b9 * (workload as u64 + 1)));
    match workload {
        Workload::PointReads => point_reads(n, seed),
        Workload::AnalyticQueries => analytic(n, seed, &mut rng),
        Workload::LiveUpdates => live(n, seed, &mut rng),
    }
}

fn point_reads(n: usize, seed: u64) -> Inputs {
    let g = data_complexity_graph(n, seed);
    let (crpq, ecrpq) = data_queries(&g);
    let mut statements = vec![
        Statement { name: "crpq".into(), text: crpq.to_string(), mode: Mode::Boolean },
        Statement { name: "ecrpq".into(), text: ecrpq.to_string(), mode: Mode::Boolean },
    ];
    // Fixed pinned statements: their cost does not depend on the random
    // part of the graph, so the read mix costs the same for every seed.
    const PINNED: [&str; 6] = [
        "Ans(y) <- (x, p, y), L(p) = a a, x = :chain_start",
        "Ans(y) <- (x, p, y), L(p) = a+ b*, x = :chain_start",
        "Ans(y) <- (x, p, y), L(p) = (a|b)* b, x = :chain_mid",
        "Ans(y) <- (x, p, y), L(p) = b b, x = :chain_mid",
        "Ans(x) <- (x, p, y), L(p) = a* b+, y = :chain_end",
        "Ans(x) <- (x, p, y), L(p) = (a b)* b b, y = :chain_end",
    ];
    for (i, text) in PINNED.into_iter().enumerate() {
        statements.push(Statement {
            name: format!("pin{i}"),
            text: text.into(),
            mode: Mode::Nodes,
        });
    }
    Inputs {
        workload: Workload::PointReads,
        seed,
        edges: g.to_edge_list(),
        statements,
        batches: Vec::new(),
        merge_threshold: 0,
        connections: 2,
    }
}

/// Fresh ad-hoc query texts for one `point_reads` connection: pinned
/// nodes-mode queries never seen before by the server (each text differs
/// from every prepared statement and every earlier ad-hoc text).
#[derive(Debug)]
pub struct AdhocTexts {
    rng: SplitMix64,
    seen: HashSet<String>,
    conn: usize,
}

impl AdhocTexts {
    /// The ad-hoc stream of connection `conn` of `inputs`.
    pub fn new(inputs: &Inputs, conn: usize) -> AdhocTexts {
        let rng = SplitMix64::seed_from_u64(inputs.seed ^ 0xad40c ^ ((conn as u64 + 1) << 32));
        let seen = inputs.statements.iter().map(|s| s.text.clone()).collect();
        AdhocTexts { rng, seen, conn }
    }

    /// The next never-seen text: a constant-pinned nodes-mode query around
    /// the embedded `a⁴b⁴` chain, forward from `chain_start`/`chain_mid` or
    /// backward into `chain_end`, over a random word-regex on `{a, b}`.
    pub fn next_text(&mut self) -> String {
        const FACTORS: [&str; 8] = ["a", "b", "(a|b)", "a*", "b*", "a+", "b+", "(a b)*"];
        loop {
            let factors = 4 + self.rng.gen_index(4);
            let mut re: Vec<&str> =
                (0..factors).map(|_| FACTORS[self.rng.gen_index(FACTORS.len())]).collect();
            // A connection-specific number of trailing `(b a)*` factors keeps
            // the streams of two connections disjoint.
            re.extend(std::iter::repeat_n("(b a)*", self.conn + 1));
            let re = re.join(" ");
            let text = match self.rng.gen_index(3) {
                0 => format!("Ans(y) <- (x, p, y), L(p) = {re}, x = :chain_start"),
                1 => format!("Ans(y) <- (x, p, y), L(p) = {re}, x = :chain_mid"),
                _ => format!("Ans(x) <- (x, p, y), L(p) = {re}, y = :chain_end"),
            };
            if self.seen.insert(text.clone()) {
                return text;
            }
        }
    }
}

/// Nodes per block of the `analytic_queries` graph.
const BLOCK: usize = 25;

fn analytic(n: usize, seed: u64, rng: &mut SplitMix64) -> Inputs {
    // A union of random blocks of 25 nodes in which every node has exactly
    // one out-edge per label, to a uniformly random node of its block. Query
    // cost sums over many independent blocks with fixed degrees, so it
    // changes little from seed to seed while the graph itself does.
    const LABELS: [&str; 3] = ["a", "b", "c"];
    let mut edges = String::new();
    let mut pin: Option<usize> = None;
    for b in 0..n / BLOCK {
        for v in b * BLOCK..(b + 1) * BLOCK {
            for label in LABELS {
                let to = b * BLOCK + rng.gen_index(BLOCK);
                if label == "c" && pin.is_none() {
                    pin = Some(to);
                }
                writeln!(edges, "n{v} {label} n{to}").expect("writing to a String cannot fail");
            }
        }
    }
    let pin = pin.expect("the analytic graph has a `c` edge");
    let specs: [(&str, Mode, String); 7] = [
        (
            "el_nodes",
            Mode::Nodes,
            "Ans(x, y) <- (x, p1, y), (x, p2, y), L(p1) = a (a|b) c, L(p2) = (b|c)+, R(p1, p2) = el".into(),
        ),
        (
            "el_paths",
            Mode::Paths,
            "Ans(x, y, p1) <- (x, p1, y), (x, p2, y), L(p1) = a (a|b) c, L(p2) = (b|c)+, R(p1, p2) = el"
                .into(),
        ),
        (
            "edit1",
            Mode::Nodes,
            "Ans(x, y) <- (x, p1, y), (x, p2, y), L(p1) = a b (a|c), L(p2) = (a|b)+ c, R(p1, p2) = edit_le_1"
                .into(),
        ),
        (
            "prefix",
            Mode::Nodes,
            "Ans(x, y) <- (x, p1, y), (x, p2, z), L(p1) = a b c, L(p2) = a b, R(p1, p2) = prefix"
                .into(),
        ),
        (
            "hamming1",
            Mode::Nodes,
            "Ans(x, y) <- (x, p1, y), (x, p2, y), L(p1) = a (a|b|c) c, L(p2) = (a|b) b c, R(p1, p2) = hamming_le_1"
                .into(),
        ),
        ("star_paths", Mode::Paths, "Ans(x, y, p) <- (x, p, y), L(p) = c (a|b)* c".into()),
        (
            "pinned",
            Mode::Nodes,
            format!(
                "Ans(x) <- (x, p1, z), (z, p2, y), L(p1) = (a|b)+, L(p2) = c (a|b)*, y = :n{pin}"
            ),
        ),
    ];
    let statements = specs
        .into_iter()
        .map(|(name, mode, text)| Statement { name: name.into(), text, mode })
        .collect();
    Inputs {
        workload: Workload::AnalyticQueries,
        seed,
        edges,
        statements,
        batches: Vec::new(),
        merge_threshold: 0,
        connections: 1,
    }
}

fn live(n: usize, seed: u64, rng: &mut SplitMix64) -> Inputs {
    // Degree-4 a/b background plus a sparse `z` chain (one edge per 40
    // nodes) through pseudorandom nodes, as in the harness's mutation family.
    // Every read reply is then well above 8 KiB, so none sits on the edge of
    // the server's large-reply write path.
    let g = generators::random_graph(n, 4.0, &["a", "b"], seed);
    let mut edges = g.to_edge_list();
    // Only nodes the edge list mentions: a batch must never create a node.
    let present: Vec<usize> =
        g.nodes().filter(|&v| g.out_degree(v) + g.in_degree(v) > 0).map(|v| v.index()).collect();
    let pick = |rng: &mut SplitMix64| present[rng.gen_index(present.len())];
    let mut z_pairs: HashSet<(usize, usize)> = HashSet::new();
    let mut prev = pick(rng);
    while z_pairs.len() < n / 40 {
        let next = pick(rng);
        if next != prev && z_pairs.insert((prev, next)) {
            writeln!(edges, "n{prev} z n{next}").expect("writing to a String cannot fail");
            prev = next;
        }
    }
    // Batches of `z` edges between existing nodes, disjoint from the base
    // and from each other, so an add followed by a remove of the same batch
    // returns the graph to its base state.
    let mut batches = Vec::with_capacity(LIVE_BATCHES);
    for _ in 0..LIVE_BATCHES {
        let mut batch = Vec::with_capacity(BATCH_EDGES);
        while batch.len() < BATCH_EDGES {
            let (from, to) = (pick(rng), pick(rng));
            if from != to && z_pairs.insert((from, to)) {
                batch.push((format!("n{from}"), "z".to_string(), format!("n{to}")));
            }
        }
        batches.push(batch);
    }
    let statements = [("zz", "z z"), ("za", "z a")]
        .into_iter()
        .map(|(name, re)| Statement {
            name: name.into(),
            text: format!("Ans(x, y) <- (x, p, y), L(p) = {re}"),
            mode: Mode::Nodes,
        })
        .collect();
    Inputs {
        workload: Workload::LiveUpdates,
        seed,
        edges,
        statements,
        batches,
        merge_threshold: BATCH_EDGES * WRITES_PER_MERGE,
        connections: 2,
    }
}
