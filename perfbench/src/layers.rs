//! The traced run: calls each layer's public functions in process, wraps
//! every call in a benchmark-side span, and derives the per-layer metrics
//! from the spans.
//!
//! Requests are sent three ways with the same request line: over TCP to the
//! server process (`server.rtt`), through `Service::dispatch` of an
//! in-process service holding the same state (`protocol.dispatch`), and as
//! the layer calls a `run` makes (`request`: decode, catalog, registry and
//! the engine's traced run, whose plan/reach/compile/search spans become
//! children). An untraced direct run (`eval.direct`) gives the tracing
//! overhead.

use crate::check::{self, Reference};
use crate::drive;
use crate::gen::{self, AdhocTexts, Inputs, Mode, Workload, GRAPH};
use crate::net::Conn;
use crate::spans::Recorder;
use crate::stats::{mean, median};
use ecrpq::eval::{BoundStatement, EvalStats, MaintainedStatement, PreparedQuery};
use ecrpq::{parse_query, persist, EvalConfig};
use ecrpq_graph::delta::LiveGraph;
use ecrpq_graph::{snapshot, GraphDb, GraphStats};
use ecrpq_server::protocol::Service;
use ecrpq_util::json::{self, Value};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One per-layer figure.
pub type Metric = (&'static str, f64, &'static str);

/// What the traced run measured.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// TCP requests sent.
    pub attempted: u64,
    /// TCP requests that failed.
    pub failed: u64,
}

/// Durations (µs) of every span named `name`.
fn durations_us(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Runs `f` `reps` times in fresh requests.
fn repeat(
    rec: &mut Recorder,
    reps: usize,
    mut f: impl FnMut(&mut Recorder) -> Result<(), String>,
) -> Result<(), String> {
    for _ in 0..reps {
        rec.next_request();
        f(rec)?;
    }
    Ok(())
}

/// Graph and storage layers: edge-list build, statistics, snapshot open and
/// sidecar decode.
fn graph_and_storage(rec: &mut Recorder, inputs: &Inputs, snap: &Path) -> Result<(), String> {
    repeat(rec, 3, |rec| {
        let (g, _) = rec.time("graph.edge_list", || GraphDb::from_edge_list(&inputs.edges));
        let g = g?;
        rec.time("graph.stats", || std::hint::black_box(GraphStats::compute(&g)));
        let (opened, _) = rec.time("storage.snapshot_open", || snapshot::open(snap));
        let (g, id) = opened.map_err(|e| e.to_string())?;
        let g = Arc::new(g);
        let art = persist::sidecar_path(snap);
        let (warm, idx) = rec.time("storage.sidecar", || {
            let bytes = std::fs::read(&art).map_err(|e| e.to_string())?;
            persist::read_sidecar(&bytes, id, &g).map_err(|e| e.to_string())
        });
        let warm = warm?;
        rec.attr(idx, "statements", warm.len() as u64);
        Ok(())
    })
}

/// Parse → prepare → compile → bind of every statement text (and, for
/// `point_reads`, of a few ad-hoc texts), cold each time.
fn statement_pipeline(rec: &mut Recorder, inputs: &Inputs, g: &Arc<GraphDb>) -> Result<(), String> {
    let mut texts: Vec<String> = inputs.statements.iter().map(|s| s.text.clone()).collect();
    if inputs.workload == Workload::PointReads {
        let mut adhoc = AdhocTexts::new(inputs, 0);
        texts.extend((0..8).map(|_| adhoc.next_text()));
    }
    repeat(rec, 3, |rec| {
        for text in &texts {
            let root = rec.begin("statement");
            let (q, _) = rec.time("parse", || parse_query(text, g.alphabet()));
            let q = q.map_err(|e| e.to_string())?;
            let (pq, _) = rec.time("prepare", || PreparedQuery::prepare(&q));
            let pq = Arc::new(pq.map_err(|e| e.to_string())?);
            rec.time("automata.compile", || pq.warm_full());
            let (b, _) = rec.time("bind", || BoundStatement::bind(Arc::clone(&pq), Arc::clone(g)));
            b.map_err(|e| e.to_string())?;
            rec.end(root);
        }
        Ok(())
    })
}

/// Runs `stmt` in `mode`, traced or not; returns the reply's answer count
/// and the engine's counters.
fn run_stmt(
    stmt: &BoundStatement,
    mode: Mode,
    trace: Option<&mut ecrpq::Trace>,
) -> Result<(usize, EvalStats), String> {
    let config = EvalConfig::default();
    let plan = stmt.plan();
    let out = match (mode, trace) {
        (Mode::Boolean, None) => plan.run_boolean(&config).map(|(b, s)| (b as usize, s)),
        (Mode::Boolean, Some(t)) => {
            plan.run_boolean_traced(&config, t).map(|(b, s)| (b as usize, s))
        }
        (Mode::Nodes, None) => plan.run_nodes(&config).map(|(a, s)| (a.len(), s)),
        (Mode::Nodes, Some(t)) => plan.run_nodes_traced(&config, t).map(|(a, s)| (a.len(), s)),
        (Mode::Paths, None) => plan.run_with_paths(&config).map(|(a, s)| (a.len(), s)),
        (Mode::Paths, Some(t)) => plan.run_with_paths_traced(&config, t).map(|(a, s)| (a.len(), s)),
    };
    out.map_err(|e| e.to_string())
}

/// The request sequence of the traced run, one pass.
enum Step {
    /// A `run` of statement `i` that must reflect graph state `state`.
    Run(usize, u32),
    /// Any other request line (batch, ad-hoc prepare/run, write), sent to
    /// both servers; `Some(add)` marks a write to check.
    Other(String, Option<bool>),
}

fn steps(inputs: &Inputs) -> Vec<Step> {
    let n = inputs.statements.len();
    let mut out = Vec::new();
    match inputs.workload {
        Workload::PointReads => {
            let mut adhoc = AdhocTexts::new(inputs, 1);
            for round in 0..4 {
                out.extend((0..n).map(|i| Step::Run(i, 1)));
                let stmts: Vec<usize> = (0..gen::BATCH_RUNS).map(|k| (k + round) % n).collect();
                out.push(Step::Other(drive::batch_line(inputs, &stmts), None));
                let name = format!("adhoc_traced{round}");
                out.push(Step::Other(drive::prepare_line(&name, &adhoc.next_text()), None));
                out.push(Step::Other(drive::run_request(&name, Mode::Nodes), None));
            }
        }
        Workload::AnalyticQueries => out.extend((0..n).map(|i| Step::Run(i, 1))),
        Workload::LiveUpdates => {
            for j in 0..inputs.batches.len() {
                out.push(Step::Other(drive::write_line(inputs, true, j), Some(true)));
                out.extend((0..n).map(|i| Step::Run(i, 1 << (1 + j))));
                out.push(Step::Other(drive::write_line(inputs, false, j), Some(false)));
                out.extend((0..n).map(|i| Step::Run(i, 1)));
            }
        }
    }
    out
}

/// Registry and catalog counters from a `stats` reply.
fn counters(conn: &mut Conn) -> Result<[u64; 6], String> {
    let reply =
        check::parse_reply(conn.roundtrip(r#"{"op":"stats"}"#).map_err(|e| e.to_string())?)?;
    let get = |outer: &str, key: &str| {
        reply.get(outer).and_then(|o| o.get(key)).and_then(Value::as_u64).unwrap_or(0)
    };
    let requests = reply.get("requests").and_then(Value::as_u64).unwrap_or(0);
    Ok([
        get("registry", "hits"),
        get("registry", "misses"),
        get("registry", "evictions"),
        get("catalog", "hits"),
        get("catalog", "misses"),
        requests,
    ])
}

/// Traced requests per run at most: enough for stable medians, few enough
/// that the span dump stays small on the cheap `point_reads` requests.
const TRACED_REQUESTS: u64 = 3_000;

/// The request layers over TCP, dispatch and direct calls, until `deadline`
/// or [`TRACED_REQUESTS`] (at least one pass). Returns (attempted, failed,
/// registry/catalog deltas).
fn requests(
    rec: &mut Recorder,
    inputs: &Inputs,
    addr: SocketAddr,
    snap: Option<&Path>,
    reference: &Reference,
    deadline: Instant,
) -> Result<(u64, u64, [u64; 6]), String> {
    let service = Service::default();
    drive::setup(&mut |line: &str| Ok(service.dispatch(line).0), inputs, snap, reference)?;
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    drive::setup(&mut drive::over_tcp(&mut conn), inputs, snap, reference)?;

    let steps = steps(inputs);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let before = counters(&mut conn)?;
    let mut passes = 0;
    while passes == 0 || (Instant::now() < deadline && attempted < TRACED_REQUESTS) {
        passes += 1;
        for step in &steps {
            let line = match step {
                Step::Run(i, _) => drive::run_line(inputs, *i),
                Step::Other(line, _) => line.clone(),
            };
            rec.next_request();
            attempted += 1;
            let (reply, idx) = rec.time("server.rtt", || conn.roundtrip(&line).map(str::to_string));
            let reply = reply.map_err(|e| e.to_string())?;
            rec.attr(idx, "reply_bytes", reply.len() as u64);
            if let Step::Run(i, _) = step {
                rec.attr(idx, "statement", *i as u64);
            }
            let parsed = check::parse_reply(&reply)?;
            if parsed.get("ok").and_then(Value::as_bool) != Some(true) {
                failed += 1;
            }
            match step {
                Step::Run(i, state) => reference.check_run(*i, *state, &parsed)?,
                Step::Other(_, Some(add)) => drive::check_write(&parsed, *add)?,
                Step::Other(_, None) => {}
            }
            rec.time("protocol.dispatch", || service.dispatch(&line));
            let Step::Run(i, _) = step else { continue };
            let s = &inputs.statements[*i];

            // The layer calls of one run, then the same run untraced.
            let root = rec.begin("request");
            let (req, _) = rec.time("protocol.decode", || json::parse(&line));
            req?;
            let (g, _) = rec.time("catalog.get", || service.catalog.get(GRAPH));
            let g = g.ok_or("graph missing from the in-process catalog")?;
            let (bound, _) =
                rec.time("registry.bound", || service.registry.bound(&s.name, GRAPH, &g));
            let (stmt, _) = bound.map_err(|e| e.to_string())?;
            let (out, run) = rec.time_traced("eval.run", |t| run_stmt(&stmt, s.mode, Some(t)));
            let (_, stats) = out?;
            rec.attr(run, "sim_cache_hits", stats.sim_cache_hits);
            rec.attr(run, "sim_cache_misses", stats.sim_cache_misses);
            rec.end(root);
            let (out, _) = rec.time("eval.direct", || run_stmt(&stmt, s.mode, None));
            out?;
        }
    }
    let after = counters(&mut conn)?;
    let mut delta = [0u64; 6];
    for k in 0..6 {
        delta[k] = after[k] - before[k];
    }
    delta[5] -= 1; // the `stats` request itself
    Ok((attempted, failed, delta))
}

/// The live overlay's layers: apply, maintain, merge, rebind.
fn delta_layer(rec: &mut Recorder, inputs: &Inputs, deadline: Instant) -> Result<(), String> {
    let base = Arc::new(check::base_graph(inputs)?);
    let config = EvalConfig::default();
    let mut live = LiveGraph::new(Arc::clone(&base), usize::MAX);
    let mut maintained: Vec<MaintainedStatement> = Vec::new();
    for s in &inputs.statements {
        let q = parse_query(&s.text, base.alphabet()).map_err(|e| e.to_string())?;
        let pq = Arc::new(PreparedQuery::prepare(&q).map_err(|e| e.to_string())?);
        let stmt =
            Arc::new(BoundStatement::bind(pq, Arc::clone(&base)).map_err(|e| e.to_string())?);
        if let Some(m) =
            MaintainedStatement::try_new(stmt, live.view(), &config).map_err(|e| e.to_string())?
        {
            maintained.push(m);
        }
    }
    let mut cycle = 0usize;
    while cycle == 0 || Instant::now() < deadline {
        let batch = &inputs.batches[cycle % inputs.batches.len()];
        for add in [true, false] {
            rec.next_request();
            let empty: [gen::Triple; 0] = [];
            let (out, _) = rec.time("delta.apply", || {
                if add {
                    live.apply(batch, &empty)
                } else {
                    live.apply(&empty, batch)
                }
            });
            let (res, _) = rec.time("delta.maintain", || {
                maintained.iter_mut().try_for_each(|m| m.apply(live.view(), &out.batch, &config))
            });
            res.map_err(|e| e.to_string())?;
        }
        cycle += 1;
        if live.pending() >= inputs.merge_threshold {
            rec.next_request();
            let (epoch, _) = rec.time("delta.merge", || live.force_merge());
            let (res, _) = rec.time("delta.rebind", || {
                maintained.iter_mut().try_for_each(|m| {
                    let pq = Arc::clone(m.statement().prepared());
                    let stmt = BoundStatement::bind(pq, Arc::clone(&epoch))?;
                    m.rebase(Arc::new(stmt));
                    Ok::<(), ecrpq::QueryError>(())
                })
            });
            res.map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Runs the traced run of `inputs` for about `seconds` against the fresh
/// server at `addr` and writes its spans to `spans_path`. `snap` is a
/// snapshot of the workload's graph written by [`drive::write_snapshot`]; for
/// `analytic_queries` it is also the server input.
pub fn traced_run(
    addr: SocketAddr,
    inputs: &Inputs,
    snap: &Path,
    reference: &Reference,
    seconds: f64,
    spans_path: &Path,
) -> Result<Layers, String> {
    let mut rec = Recorder::new();
    let g = Arc::new(check::base_graph(inputs)?);
    graph_and_storage(&mut rec, inputs, snap)?;
    statement_pipeline(&mut rec, inputs, &g)?;

    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let live = inputs.workload == Workload::LiveUpdates;
    let server_input = (inputs.workload == Workload::AnalyticQueries).then_some(snap);
    let share = if live { budget / 2 } else { budget };
    let (attempted, failed, reg) =
        requests(&mut rec, inputs, addr, server_input, reference, start + share)?;
    if live {
        delta_layer(&mut rec, inputs, start + budget)?;
    }
    rec.dump(spans_path).map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let mut m: Vec<Metric> = Vec::new();
    // Round trips and dispatches of `run` requests only: the spans of the
    // same request id as an `eval.direct` span.
    let run_requests: std::collections::HashSet<u64> =
        rec.spans.iter().filter(|s| s.name == "eval.direct").map(|s| s.request).collect();
    let of_runs = |name: &str| -> Vec<f64> {
        rec.spans
            .iter()
            .filter(|s| s.name == name && run_requests.contains(&s.request))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    let rtt = median(&of_runs("server.rtt"));
    let dispatch = median(&of_runs("protocol.dispatch"));
    let direct = median(&durations_us(&rec, "eval.direct"));
    let traced = median(&durations_us(&rec, "eval.run"));
    m.push(("server.transport_us", rtt - dispatch, "us"));
    m.push(("protocol.dispatch_us", dispatch, "us"));
    m.push(("protocol.overhead_us", dispatch - direct, "us"));
    let reply_bytes: Vec<f64> = rec
        .spans
        .iter()
        .filter(|s| s.name == "server.rtt" && run_requests.contains(&s.request))
        .filter_map(|s| s.attr("reply_bytes"))
        .map(|b| b as f64)
        .collect();
    m.push(("protocol.reply_bytes", mean(&reply_bytes), "count"));
    let [hits, misses, evictions, cat_hits, cat_misses, reqs] = reg;
    m.push(("registry.hit_ratio", ratio(hits, hits + misses), "ratio"));
    m.push(("registry.evictions", evictions as f64, "count"));
    m.push(("catalog.lookups_per_op", ratio(cat_hits + cat_misses, reqs), "ratio"));
    m.push(("parse.us", median(&durations_us(&rec, "parse")), "us"));
    m.push(("prepare.us", median(&durations_us(&rec, "prepare")), "us"));
    m.push(("automata.compile_us", median(&durations_us(&rec, "automata.compile")), "us"));
    m.push(("bind.us", median(&durations_us(&rec, "bind")), "us"));

    // Engine spans, summed per run.
    let runs: Vec<usize> =
        (0..rec.spans.len()).filter(|&i| rec.spans[i].name == "eval.run").collect();
    let per_run =
        |pred: &dyn Fn(&str) -> bool, value: &dyn Fn(&crate::spans::Span) -> f64| -> Vec<f64> {
            runs.iter()
                .map(|&r| {
                    rec.descendants(r)
                        .into_iter()
                        .filter(|&d| pred(&rec.spans[d].name))
                        .map(|d| value(&rec.spans[d]))
                        .sum()
                })
                .collect()
        };
    let us = |s: &crate::spans::Span| s.dur_ns() as f64 / 1e3;
    let attr = |key: &'static str| move |s: &crate::spans::Span| s.attr(key).unwrap_or(0) as f64;
    m.push(("plan.us", median(&per_run(&|n| n == "plan", &us)), "us"));
    m.push(("reach.us", median(&per_run(&|n| n.starts_with("reach:"), &us)), "us"));
    m.push((
        "reach.pairs",
        median(&per_run(&|n| n.starts_with("reach:"), &attr("pairs"))),
        "count",
    ));
    m.push(("search.us", median(&per_run(&|n| n == "search", &us)), "us"));
    m.push((
        "search.states",
        median(&per_run(&|n| n == "search", &attr("search_states"))),
        "count",
    ));
    let total = |name: &str, key: &str| -> u64 {
        rec.spans.iter().filter(|s| s.name == name).filter_map(|s| s.attr(key)).sum()
    };
    m.push((
        "search.verified_ratio",
        ratio(total("search", "verified"), total("search", "candidates")),
        "ratio",
    ));
    let (sim_hits, sim_misses) =
        (total("eval.run", "sim_cache_hits"), total("eval.run", "sim_cache_misses"));
    m.push(("eval.sim_cache_hit_ratio", ratio(sim_hits, sim_hits + sim_misses), "ratio"));
    let mut qerrors: Vec<f64> = rec
        .spans
        .iter()
        .filter(|s| s.name.starts_with("reach:"))
        .filter_map(|s| {
            let est = s.attr("est_pairs")?.max(1) as f64;
            let got = s.attr("pairs")?.max(1) as f64;
            Some((est / got).max(got / est))
        })
        .collect();
    qerrors.sort_by(f64::total_cmp);
    m.push(("plan.qerror_p50", median(&qerrors), "ratio"));
    m.push(("plan.qerror_max", qerrors.last().copied().unwrap_or(0.0), "ratio"));

    let ms = |name: &str| median(&durations_us(&rec, name)) / 1e3;
    m.push(("graph.edge_list_ms", ms("graph.edge_list"), "ms"));
    m.push(("graph.stats_ms", ms("graph.stats"), "ms"));
    m.push(("storage.snapshot_open_ms", ms("storage.snapshot_open"), "ms"));
    m.push(("storage.sidecar_ms", ms("storage.sidecar"), "ms"));
    let snap_bytes = std::fs::metadata(snap).map_err(|e| e.to_string())?.len();
    m.push(("storage.snapshot_bytes", snap_bytes as f64, "count"));
    m.push(("delta.apply_us", median(&durations_us(&rec, "delta.apply")), "us"));
    m.push(("delta.maintain_us", median(&durations_us(&rec, "delta.maintain")), "us"));
    m.push(("delta.merge_ms", ms("delta.merge"), "ms"));
    m.push(("delta.rebind_ms", ms("delta.rebind"), "ms"));

    m.push(("trace.overhead_pct", 100.0 * (traced - direct) / direct, "pct"));
    // Transport plus the self times of every span of each layered request,
    // as a share of the client's round trip.
    let layered: Vec<f64> = (0..rec.spans.len())
        .filter(|&i| rec.spans[i].name == "request")
        .map(|r| {
            let mut tree = rec.descendants(r);
            tree.push(r);
            tree.iter().map(|&i| rec.self_ns(i) as f64 / 1e3).sum()
        })
        .collect();
    m.push(("trace.coverage_pct", 100.0 * ((rtt - dispatch) + median(&layered)) / rtt, "pct"));
    Ok(Layers { metrics: m, attempted, failed })
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
