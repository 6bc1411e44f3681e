//! Set-up and the closed-loop load: each client thread owns one connection
//! and sends its next request only after the previous reply arrived.
//!
//! Replies are not parsed inside the measured window. Each thread keeps
//! every distinct `(expectation, reply)` pair and they are checked after the
//! window, so checking costs the loop one hash of the reply.

use crate::check::{self, Reference};
use crate::gen::{self, AdhocTexts, Inputs, Mode, Workload, GRAPH};
use crate::net::Conn;
use ecrpq_graph::prng::SplitMix64;
use ecrpq_server::protocol::Service;
use ecrpq_util::json::Value;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Request classes with their own latency figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A prepared `run`.
    Run = 0,
    /// A `batch` of [`gen::BATCH_RUNS`] runs.
    Batch = 1,
    /// An ad-hoc `prepare` of a never-seen text plus its first `run`.
    Adhoc = 2,
    /// An `add_edges` or `remove_edges`.
    Write = 3,
}

/// What a stored reply must show.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expect {
    /// A run of statement `stmt` reflecting one of the graph states in the
    /// bitmask `states` (bit 0: base graph, bit `1 + j`: base plus batch `j`).
    Run {
        /// Statement index.
        stmt: usize,
        /// Allowed graph states.
        states: u32,
    },
    /// A batch of runs of these statements, in order, on the base graph.
    Batch(Vec<usize>),
    /// The first run of an ad-hoc query text (nodes mode).
    Adhoc(String),
    /// A write of batch `j`: all its edges added (or removed), none missing.
    Write {
        /// True for `add_edges`.
        add: bool,
        /// Batch index.
        batch: usize,
    },
}

/// What a measured window produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Round-trip milliseconds per [`Kind`]; a failed request is `+inf`.
    pub latency_ms: [Vec<f64>; 4],
    /// `run` round-trip milliseconds per statement.
    pub run_ms_by_statement: HashMap<usize, Vec<f64>>,
    /// Top-level requests sent.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// When the window opened.
    pub start: Option<Instant>,
    /// Completion instant of every completed request.
    pub done: Vec<Instant>,
    /// Distinct replies to check, by what they must show.
    pub replies: HashMap<Expect, HashSet<String>>,
}

impl Outcome {
    fn record(&mut self, kind: Kind, ms: f64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.done.push(Instant::now());
            self.latency_ms[kind as usize].push(ms);
        } else {
            self.failed += 1;
            self.latency_ms[kind as usize].push(f64::INFINITY);
        }
    }

    /// Keeps `reply` for checking unless an identical one is kept already.
    fn keep(&mut self, expect: Expect, reply: &str) {
        let seen = self.replies.entry(expect).or_default();
        if !seen.contains(reply) {
            seen.insert(reply.to_string());
        }
    }

    fn merge(&mut self, other: Outcome) {
        for (mine, theirs) in self.latency_ms.iter_mut().zip(other.latency_ms) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.done.extend(other.done);
        self.start = match (self.start, other.start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        for (stmt, ms) in other.run_ms_by_statement {
            self.run_ms_by_statement.entry(stmt).or_default().extend(ms);
        }
        for (expect, replies) in other.replies {
            self.replies.entry(expect).or_default().extend(replies);
        }
    }

    /// Takes in the replies and the request counts of an unmeasured
    /// window (the warm-up), so they are checked and counted, but not
    /// its timings.
    fn absorb_unmeasured(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (expect, replies) in other.replies {
            self.replies.entry(expect).or_default().extend(replies);
        }
    }

    /// Completion rates (requests per second) of ten consecutive runs of
    /// equally many completions: the window split by completions, not by
    /// time, so the rate is never rounded to whole requests.
    pub fn rates(&self) -> Vec<f64> {
        let Some(start) = self.start else { return Vec::new() };
        let mut done = self.done.clone();
        done.sort_unstable();
        let n = done.len();
        let parts = 10.min(n);
        let mut last = start;
        (1..=parts)
            .map(|i| {
                let (lo, hi) = ((i - 1) * n / parts, i * n / parts);
                let end = done[hi - 1];
                let rate = (hi - lo) as f64 / end.duration_since(last).as_secs_f64();
                last = end;
                rate
            })
            .collect()
    }
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with(r#"{"ok":true"#)
}

/// Sends `line` and times the round trip in milliseconds. A transport
/// error is recorded as a failed request of `kind`; the caller then stops,
/// since the connection is gone.
fn timed<'c>(
    conn: &'c mut Conn,
    out: &mut Outcome,
    kind: Kind,
    line: &str,
) -> Option<(&'c str, f64)> {
    let start = Instant::now();
    match conn.roundtrip(line) {
        Ok(reply) => Some((reply, start.elapsed().as_secs_f64() * 1e3)),
        Err(_) => {
            out.record(kind, f64::INFINITY, false);
            None
        }
    }
}

/// The `run` request line of the statement registered as `name`.
pub fn run_request(name: &str, mode: Mode) -> String {
    Value::obj([
        ("op", Value::str("run")),
        ("name", Value::str(name)),
        ("graph", Value::str(GRAPH)),
        ("mode", Value::str(mode.as_str())),
    ])
    .to_string()
}

/// The `run` request line of statement `stmt`.
pub fn run_line(inputs: &Inputs, stmt: usize) -> String {
    let s = &inputs.statements[stmt];
    run_request(&s.name, s.mode)
}

/// The `batch` request line running `stmts` in order.
pub fn batch_line(inputs: &Inputs, stmts: &[usize]) -> String {
    let subs = stmts
        .iter()
        .map(|&i| {
            let s = &inputs.statements[i];
            Value::obj([
                ("name", Value::str(s.name.as_str())),
                ("mode", Value::str(s.mode.as_str())),
            ])
        })
        .collect();
    Value::obj([
        ("op", Value::str("batch")),
        ("graph", Value::str(GRAPH)),
        ("requests", Value::Arr(subs)),
    ])
    .to_string()
}

/// The `add_edges`/`remove_edges` request line of batch `j`.
pub fn write_line(inputs: &Inputs, add: bool, j: usize) -> String {
    let edges = inputs.batches[j]
        .iter()
        .map(|(f, l, t)| {
            Value::Arr(vec![Value::str(f.as_str()), Value::str(l.as_str()), Value::str(t.as_str())])
        })
        .collect();
    Value::obj([
        ("op", Value::str(if add { "add_edges" } else { "remove_edges" })),
        ("graph", Value::str(GRAPH)),
        ("edges", Value::Arr(edges)),
        ("merge_threshold", Value::int(inputs.merge_threshold as u64)),
    ])
    .to_string()
}

/// The `prepare` request line of an ad-hoc text.
pub fn prepare_line(name: &str, text: &str) -> String {
    Value::obj([
        ("op", Value::str("prepare")),
        ("name", Value::str(name)),
        ("query", Value::str(text)),
        ("graph", Value::str(GRAPH)),
    ])
    .to_string()
}

/// Sends one request line and returns the reply line: a TCP connection in
/// the measured runs, `Service::dispatch` in process for the traced run.
pub type Send<'a> = dyn FnMut(&str) -> Result<String, String> + 'a;

/// A [`Send`] over a TCP connection.
pub fn over_tcp(conn: &mut Conn) -> impl FnMut(&str) -> Result<String, String> + '_ {
    |line| conn.roundtrip(line).map(str::to_string).map_err(|e| e.to_string())
}

/// Sends `req` and returns the parsed reply, failing on `ok: false`.
fn ask(send: &mut Send<'_>, req: &Value) -> Result<Value, String> {
    let reply = check::parse_reply(&send(&req.to_string())?)?;
    if reply.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(reply)
    } else {
        Err(format!("request {req} failed: {reply}"))
    }
}

/// The `live_updates` warm-up: add the last batch, read every statement
/// (which builds its maintained answers), remove the batch, read again.
fn warm_live(send: &mut Send<'_>, inputs: &Inputs, reference: &Reference) -> Result<(), String> {
    let last = inputs.batches.len() - 1;
    write(send, inputs, true, last)?;
    run_all(send, inputs, reference, 1 << (1 + last))?;
    write(send, inputs, false, last)?;
    run_all(send, inputs, reference, 1)
}

/// Runs every statement once, checking each reply.
fn run_all(
    send: &mut Send<'_>,
    inputs: &Inputs,
    reference: &Reference,
    states: u32,
) -> Result<(), String> {
    for i in 0..inputs.statements.len() {
        let reply = check::parse_reply(&send(&run_line(inputs, i))?)?;
        reference.check_run(i, states, &reply)?;
    }
    Ok(())
}

/// Loads the workload graph from its edge list and prepares every statement.
fn load_and_prepare(send: &mut Send<'_>, inputs: &Inputs) -> Result<(), String> {
    ask(
        send,
        &Value::obj([
            ("op", Value::str("load")),
            ("graph", Value::str(GRAPH)),
            ("edges", Value::str(inputs.edges.as_str())),
        ]),
    )?;
    for s in &inputs.statements {
        ask(
            send,
            &Value::obj([
                ("op", Value::str("prepare")),
                ("name", Value::str(s.name.as_str())),
                ("query", Value::str(s.text.as_str())),
                ("graph", Value::str(GRAPH)),
            ]),
        )?;
    }
    Ok(())
}

/// The untimed generator step of `analytic_queries` (and of every traced
/// run): writes the workload's graph and statements as a snapshot at `path`
/// plus its `.art` sidecar, through the server library's own `save`.
pub fn write_snapshot(inputs: &Inputs, path: &Path) -> Result<(), String> {
    let service = Service::default();
    let send: &mut Send<'_> = &mut |line: &str| Ok(service.dispatch(line).0);
    load_and_prepare(send, inputs)?;
    let path = path.to_str().ok_or("snapshot path is not UTF-8")?;
    let save =
        [("op", Value::str("save")), ("graph", Value::str(GRAPH)), ("path", Value::str(path))];
    ask(send, &Value::obj(save)).map(drop)
}

/// Brings a fresh server to the state the measured window starts from:
/// graph loaded (or opened from `snapshot` with its statements warm from
/// the sidecar), statements prepared and their plans bound, and for
/// `live_updates` the maintained statements built by one add/remove cycle.
/// Every reply is checked against `reference`.
pub fn setup(
    send: &mut Send<'_>,
    inputs: &Inputs,
    snapshot: Option<&Path>,
    reference: &Reference,
) -> Result<(), String> {
    match snapshot {
        Some(path) => {
            let path = path.to_str().ok_or("snapshot path is not UTF-8")?;
            ask(
                send,
                &Value::obj([
                    ("op", Value::str("open")),
                    ("name", Value::str(GRAPH)),
                    ("path", Value::str(path)),
                ]),
            )?;
            // Computes the graph statistics the planner reads.
            ask(send, &Value::obj([("op", Value::str("stats")), ("graph", Value::str(GRAPH))]))?;
        }
        None => {
            load_and_prepare(send, inputs)?;
            run_all(send, inputs, reference, 1)?;
        }
    }
    if inputs.workload == Workload::LiveUpdates {
        warm_live(send, inputs, reference)?;
    }
    Ok(())
}

fn write(send: &mut Send<'_>, inputs: &Inputs, add: bool, j: usize) -> Result<(), String> {
    let reply = check::parse_reply(&send(&write_line(inputs, add, j))?)?;
    check_write(&reply, add)
}

/// Checks an `add_edges`/`remove_edges` reply: every edge of the batch
/// applied, none missing.
pub fn check_write(reply: &Value, add: bool) -> Result<(), String> {
    let field = if add { "added" } else { "removed" };
    let applied = reply.get(field).and_then(Value::as_u64);
    let missing = reply.get("missing").and_then(Value::as_u64);
    if reply.get("ok").and_then(Value::as_bool) == Some(true)
        && applied == Some(gen::BATCH_EDGES as u64)
        && missing == Some(0)
    {
        Ok(())
    } else {
        Err(format!("write reply {reply}"))
    }
}

/// Runs the workload's closed loop against a set-up server: `warmup`
/// seconds untimed, then the measured window of `seconds`, on the same
/// connections. The warm-up's replies are checked with the window's and its
/// requests counted, but not timed.
pub fn measure(
    addr: SocketAddr,
    inputs: &Inputs,
    warmup: f64,
    seconds: f64,
) -> Result<Outcome, String> {
    let threads = inputs.connections;
    let barrier = Barrier::new(threads);
    // One writer sequence per phase: each starts from the base graph.
    let seqs = [AtomicU64::new(0), AtomicU64::new(0)];
    let windows = [Duration::from_secs_f64(warmup), Duration::from_secs_f64(seconds)];
    let parts: Vec<Result<[Outcome; 2], String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, seqs, windows) = (&barrier, &seqs, &windows);
                s.spawn(move || -> Result<[Outcome; 2], String> {
                    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
                    // The read streams run on across both phases, so the
                    // window's ad-hoc texts are new to the server too.
                    let mut rng =
                        SplitMix64::seed_from_u64(inputs.seed ^ 0x7ead ^ ((t as u64 + 1) << 40));
                    let mut adhoc = AdhocTexts::new(inputs, t);
                    let mut phase = |k: usize| -> Result<Outcome, String> {
                        // Every connection ends the previous phase first, so
                        // the writer's cycles never straddle two phases.
                        barrier.wait();
                        let start = Instant::now();
                        let deadline = start + windows[k];
                        let seq = &seqs[k];
                        let mut out = match (inputs.workload, t) {
                            (Workload::LiveUpdates, 0) => writer(&mut conn, inputs, seq, deadline),
                            (Workload::LiveUpdates, _) => reader(&mut conn, inputs, seq, deadline),
                            _ => reads(&mut conn, inputs, t, &mut rng, &mut adhoc, deadline),
                        }?;
                        out.start = Some(start);
                        Ok(out)
                    };
                    Ok([phase(0)?, phase(1)?])
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let (mut warm, mut out) = (Outcome::default(), Outcome::default());
    for part in parts {
        let [w, m] = part?;
        warm.merge(w);
        out.merge(m);
    }
    out.absorb_unmeasured(warm);
    Ok(out)
}

/// The read loop of `point_reads` and `analytic_queries` on connection `t`.
fn reads(
    conn: &mut Conn,
    inputs: &Inputs,
    t: usize,
    rng: &mut SplitMix64,
    adhoc: &mut AdhocTexts,
    deadline: Instant,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let run_lines: Vec<String> =
        (0..inputs.statements.len()).map(|i| run_line(inputs, i)).collect();
    let point = inputs.workload == Workload::PointReads;
    // Analytic statements go round robin, so every run has the same mix.
    let mut next = rng.gen_index(inputs.statements.len());
    let mut adhoc_count = 0usize;
    while Instant::now() < deadline {
        let roll = if point { rng.gen_index(32) } else { 31 };
        if roll == 0 {
            // 1 in 32: ad-hoc prepare + first run (two requests).
            let name = format!("adhoc{t}_{}", adhoc_count % gen::ADHOC_NAMES);
            adhoc_count += 1;
            let text = adhoc.next_text();
            let Some((reply, prepare_ms)) =
                timed(conn, &mut out, Kind::Adhoc, &prepare_line(&name, &text))
            else {
                break;
            };
            let prepared = is_ok(reply);
            out.attempted += 1;
            if prepared {
                out.done.push(Instant::now());
            } else {
                out.failed += 1;
            }
            let run = run_request(&name, Mode::Nodes);
            let Some((reply, run_ms)) = timed(conn, &mut out, Kind::Adhoc, &run) else { break };
            out.record(Kind::Adhoc, prepare_ms + run_ms, prepared && is_ok(reply));
            out.keep(Expect::Adhoc(text), reply);
        } else if roll <= 4 {
            // 1 in 8: a batch of 16 runs.
            let stmts: Vec<usize> =
                (0..gen::BATCH_RUNS).map(|_| rng.gen_index(inputs.statements.len())).collect();
            let Some((reply, ms)) = timed(conn, &mut out, Kind::Batch, &batch_line(inputs, &stmts))
            else {
                break;
            };
            out.record(Kind::Batch, ms, is_ok(reply));
            out.keep(Expect::Batch(stmts), reply);
        } else {
            let stmt = if point {
                rng.gen_index(inputs.statements.len())
            } else {
                next = (next + 1) % inputs.statements.len();
                next
            };
            let Some((reply, ms)) = timed(conn, &mut out, Kind::Run, &run_lines[stmt]) else {
                break;
            };
            out.record(Kind::Run, ms, is_ok(reply));
            out.run_ms_by_statement.entry(stmt).or_default().push(ms);
            out.keep(Expect::Run { stmt, states: 1 }, reply);
        }
    }
    Ok(out)
}

/// The `live_updates` writer: add batch `c mod K`, then remove it, for
/// cycles `c = 0, 1, …`. `seq` tells readers which batch may be applied:
/// odd `2c + 1` while cycle `c` is in flight, even once it is removed.
fn writer(
    conn: &mut Conn,
    inputs: &Inputs,
    seq: &AtomicU64,
    deadline: Instant,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lines: Vec<[String; 2]> = (0..inputs.batches.len())
        .map(|j| [write_line(inputs, true, j), write_line(inputs, false, j)])
        .collect();
    let mut c = 0u64;
    while Instant::now() < deadline {
        let j = (c as usize) % inputs.batches.len();
        seq.store(2 * c + 1, Ordering::SeqCst);
        for (k, line) in lines[j].iter().enumerate() {
            let Some((reply, ms)) = timed(conn, &mut out, Kind::Write, line) else {
                return Ok(out);
            };
            out.record(Kind::Write, ms, is_ok(reply));
            out.keep(Expect::Write { add: k == 0, batch: j }, reply);
        }
        seq.store(2 * c + 2, Ordering::SeqCst);
        c += 1;
    }
    Ok(out)
}

/// The `live_updates` reader: maintained nodes-mode runs, round robin.
fn reader(
    conn: &mut Conn,
    inputs: &Inputs,
    seq: &AtomicU64,
    deadline: Instant,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let run_lines: Vec<String> =
        (0..inputs.statements.len()).map(|i| run_line(inputs, i)).collect();
    let k = inputs.batches.len() as u64;
    let mut stmt = 0usize;
    while Instant::now() < deadline {
        stmt = (stmt + 1) % run_lines.len();
        let before = seq.load(Ordering::SeqCst);
        let Some((reply, ms)) = timed(conn, &mut out, Kind::Run, &run_lines[stmt]) else { break };
        let after = seq.load(Ordering::SeqCst);
        out.record(Kind::Run, ms, is_ok(reply));
        out.run_ms_by_statement.entry(stmt).or_default().push(ms);
        // The base graph, or base plus the batch of any cycle in flight
        // while this request was.
        let mut states = 1u32;
        let mut v = before | 1;
        while v <= after && v < (before | 1) + 2 * k {
            states |= 1 << (1 + (v / 2) % k);
            v += 2;
        }
        out.keep(Expect::Run { stmt, states }, reply);
    }
    Ok(out)
}

/// Checks every stored reply. Returns the number checked, or the first
/// mismatch. Ad-hoc texts are evaluated cold on `base` here.
pub fn verify(
    outcome: &Outcome,
    base: &ecrpq_graph::GraphDb,
    reference: &Reference,
) -> Result<usize, String> {
    let mut checked = 0;
    for (expect, line) in
        outcome.replies.iter().flat_map(|(e, set)| set.iter().map(move |l| (e, l)))
    {
        checked += 1;
        let reply = check::parse_reply(line)?;
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            continue; // a refused request, already counted as failed
        }
        let result = match expect {
            Expect::Run { stmt, states } => reference.check_run(*stmt, *states, &reply),
            Expect::Batch(stmts) => {
                let results = reply.get("results").and_then(Value::as_arr).unwrap_or(&[]);
                if results.len() != stmts.len() {
                    Err(format!("batch of {} replied {} results", stmts.len(), results.len()))
                } else {
                    stmts.iter().zip(results).try_for_each(|(&i, r)| reference.check_run(i, 1, r))
                }
            }
            Expect::Adhoc(text) => {
                check::cold_eval(base, text, Mode::Nodes).and_then(|e| check::check_run(&reply, &e))
            }
            Expect::Write { add, .. } => check_write(&reply, *add),
        };
        result.map_err(|e| format!("{expect:?}: {e}"))?;
    }
    Ok(checked)
}

/// The end-of-run check of `live_updates`: apply one more batch, read every
/// maintained statement, and compare with a cold run on a force-merged
/// graph.
pub fn verify_live_end(
    addr: SocketAddr,
    inputs: &Inputs,
    base: &ecrpq_graph::GraphDb,
) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let send = &mut over_tcp(&mut conn);
    let j = inputs.seed as usize % inputs.batches.len();
    write(send, inputs, true, j)?;
    let merged = check::merged_with(base, &inputs.batches[j]);
    for (i, s) in inputs.statements.iter().enumerate() {
        let reply = check::parse_reply(&send(&run_line(inputs, i))?)?;
        let expected = check::cold_eval(&merged, &s.text, s.mode)?;
        check::check_run(&reply, &expected).map_err(|e| format!("maintained `{}`: {e}", s.name))?;
    }
    Ok(())
}
