//! Correctness: expected answers from an untimed, in-process, cold
//! evaluation on the same graph, and the comparison of server replies
//! against them.

use crate::gen::{Inputs, Mode, Triple, Workload};
use ecrpq::eval::PreparedQuery;
use ecrpq::{parse_query, EvalConfig};
use ecrpq_graph::delta::LiveGraph;
use ecrpq_graph::{GraphDb, Path};
use ecrpq_util::json::{self, Value};
use std::sync::Arc;

/// The answer a reply must carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// A Boolean `answer`.
    Bool(bool),
    /// The `answers` rows, each rendered as JSON, sorted.
    Rows(Vec<String>),
}

/// Parses, prepares, binds and runs `text` on `graph` from scratch.
pub fn cold_eval(graph: &GraphDb, text: &str, mode: Mode) -> Result<Expected, String> {
    let query = parse_query(text, graph.alphabet()).map_err(|e| format!("{text}: {e}"))?;
    let pq = PreparedQuery::prepare(&query).map_err(|e| format!("{text}: {e}"))?;
    let plan = pq.bind(graph).map_err(|e| format!("{text}: {e}"))?;
    let config = EvalConfig::default();
    let fail = |e: ecrpq::QueryError| format!("{text}: {e}");
    let node = |n| Value::str(graph.node_display(n));
    let mut rows: Vec<String> = match mode {
        Mode::Boolean => {
            return plan.run_boolean(&config).map(|(b, _)| Expected::Bool(b)).map_err(fail)
        }
        Mode::Nodes => {
            let (answers, _) = plan.run_nodes(&config).map_err(fail)?;
            answers
                .iter()
                .map(|row| Value::Arr(row.iter().map(|&n| node(n)).collect()).to_string())
                .collect()
        }
        Mode::Paths => {
            let (answers, _) = plan.run_with_paths(&config).map_err(fail)?;
            answers
                .iter()
                .map(|a| {
                    Value::obj([
                        ("nodes", Value::Arr(a.nodes.iter().map(|&n| node(n)).collect())),
                        (
                            "paths",
                            Value::Arr(a.paths.iter().map(|p| path_value(p, graph)).collect()),
                        ),
                    ])
                    .to_string()
                })
                .collect()
        }
    };
    rows.sort_unstable();
    Ok(Expected::Rows(rows))
}

/// A path as the protocol's alternating `[node, label, node, …]` array.
fn path_value(path: &Path, graph: &GraphDb) -> Value {
    let mut items = Vec::new();
    for (i, &n) in path.nodes().iter().enumerate() {
        if i > 0 {
            items.push(Value::str(graph.alphabet().label(path.label()[i - 1])));
        }
        items.push(Value::str(graph.node_display(n)));
    }
    Value::Arr(items)
}

/// Checks one `run` reply (already parsed) against `expected`.
pub fn check_run(reply: &Value, expected: &Expected) -> Result<(), String> {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("run failed: {reply}"));
    }
    match expected {
        Expected::Bool(b) => match reply.get("answer").and_then(Value::as_bool) {
            Some(got) if got == *b => Ok(()),
            got => Err(format!("boolean answer {got:?}, expected {b}")),
        },
        Expected::Rows(rows) => {
            let got =
                reply.get("answers").and_then(Value::as_arr).ok_or("reply has no `answers`")?;
            let mut got: Vec<String> = got.iter().map(Value::to_string).collect();
            got.sort_unstable();
            if reply.get("count").and_then(Value::as_u64) != Some(got.len() as u64) {
                return Err("`count` disagrees with `answers`".into());
            }
            if &got == rows {
                Ok(())
            } else {
                Err(format!("{} answers, expected {} (or different rows)", got.len(), rows.len()))
            }
        }
    }
}

/// Parses a reply line.
pub fn parse_reply(line: &str) -> Result<Value, String> {
    json::parse(line).map_err(|e| format!("bad reply JSON: {e}"))
}

/// The base graph of `inputs` as the server builds it from the edge list.
pub fn base_graph(inputs: &Inputs) -> Result<GraphDb, String> {
    GraphDb::from_edge_list(&inputs.edges)
}

/// The graph after adding `batch` to `base` through a live overlay and
/// force-merging it into a fresh epoch.
pub fn merged_with(base: &GraphDb, batch: &[Triple]) -> Arc<GraphDb> {
    let mut live = LiveGraph::new(Arc::new(base.clone()), usize::MAX);
    live.apply(batch, &[]);
    live.force_merge()
}

/// Expected answers of every statement on every graph state a reply may
/// reflect: `states[0]` is the base graph, `states[1 + j]` the base plus
/// mutation batch `j`.
#[derive(Clone, Debug)]
pub struct Reference {
    /// `states[s][i]`: statement `i` on state `s`.
    pub states: Vec<Vec<Expected>>,
}

impl Reference {
    /// Evaluates every statement cold on `base` and, for `live_updates`, on
    /// `base` plus each batch.
    pub fn build(inputs: &Inputs, base: &GraphDb) -> Result<Reference, String> {
        let eval_all = |g: &GraphDb| -> Result<Vec<Expected>, String> {
            inputs.statements.iter().map(|s| cold_eval(g, &s.text, s.mode)).collect()
        };
        let mut states = vec![eval_all(base)?];
        if inputs.workload == Workload::LiveUpdates {
            for batch in &inputs.batches {
                states.push(eval_all(&merged_with(base, batch))?);
            }
        }
        Ok(Reference { states })
    }

    /// Checks a run reply of statement `stmt` that may reflect any state in
    /// the bitmask `states`.
    pub fn check_run(&self, stmt: usize, states: u32, reply: &Value) -> Result<(), String> {
        let mut last = Err("no graph state allowed".to_string());
        for (s, expected) in self.states.iter().enumerate() {
            if states & (1 << s) != 0 {
                last = check_run(reply, &expected[stmt]);
                if last.is_ok() {
                    return last;
                }
            }
        }
        last
    }
}
