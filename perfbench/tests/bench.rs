//! The benchmark's own tests: a tiny-size smoke of each workload against an
//! in-process server (every reply checked), the traced run on a tiny input,
//! seed determinism, and the self-time arithmetic of the span recorder.

use ecrpq_server::server::{Server, ServerConfig};
use perfbench::check::{self, Reference};
use perfbench::drive;
use perfbench::gen::{self, AdhocTexts, Size, Workload};
use perfbench::layers;
use perfbench::spans::Recorder;
use perfbench::stats::{quantile, tail_supported};
use std::path::PathBuf;

/// A directory for this test under Cargo's per-target temp dir.
fn temp_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("create the test directory");
    dir
}

/// Sets a fresh in-process server up, drives the closed loop briefly and
/// checks every reply.
fn smoke(workload: Workload) {
    let inputs = gen::inputs(workload, 3, Size::Tiny);
    let base = check::base_graph(&inputs).expect("edge list parses");
    let snap = temp_dir(workload.name()).join("g.snap");
    let snapshot = (workload == Workload::AnalyticQueries).then(|| {
        drive::write_snapshot(&inputs, &snap).expect("snapshot written");
        snap.as_path()
    });
    let reference = Reference::build(&inputs, &base).expect("reference answers");
    let handle = Server::spawn(ServerConfig::default()).expect("server starts");
    let mut conn = perfbench::net::Conn::connect(handle.addr()).expect("connect");
    drive::setup(&mut drive::over_tcp(&mut conn), &inputs, snapshot, &reference).expect("set-up");
    let outcome = drive::measure(handle.addr(), &inputs, 0.1, 0.3).expect("measured window");
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0, "no request may fail");
    let checked = drive::verify(&outcome, &base, &reference).expect("every reply is correct");
    assert!(checked > 0);
    if workload == Workload::LiveUpdates {
        assert!(!outcome.latency_ms[drive::Kind::Write as usize].is_empty());
        drive::verify_live_end(handle.addr(), &inputs, &base).expect("maintained answers");
    }
    handle.shutdown();
}

#[test]
fn point_reads_smoke() {
    smoke(Workload::PointReads);
}

#[test]
fn analytic_queries_smoke() {
    smoke(Workload::AnalyticQueries);
}

#[test]
fn live_updates_smoke() {
    smoke(Workload::LiveUpdates);
}

#[test]
fn a_wrong_answer_is_reported() {
    let inputs = gen::inputs(Workload::PointReads, 3, Size::Tiny);
    let base = check::base_graph(&inputs).expect("edge list parses");
    let mut reference = Reference::build(&inputs, &base).expect("reference answers");
    let handle = Server::spawn(ServerConfig::default()).expect("server starts");
    let mut conn = perfbench::net::Conn::connect(handle.addr()).expect("connect");
    drive::setup(&mut drive::over_tcp(&mut conn), &inputs, None, &reference).expect("set-up");
    let outcome = drive::measure(handle.addr(), &inputs, 0.0, 0.1).expect("measured window");
    handle.shutdown();
    // Corrupt one expected answer: verification must now fail.
    reference.states[0][0] = match &reference.states[0][0] {
        check::Expected::Bool(b) => check::Expected::Bool(!b),
        check::Expected::Rows(_) => check::Expected::Rows(vec!["[\"nowhere\"]".into()]),
    };
    assert!(drive::verify(&outcome, &base, &reference).is_err());
}

#[test]
fn traced_run_reports_every_layer() {
    for workload in Workload::ALL {
        let inputs = gen::inputs(workload, 5, Size::Tiny);
        let base = check::base_graph(&inputs).expect("edge list parses");
        let dir = temp_dir(&format!("traced-{}", workload.name()));
        let snap = dir.join("g.snap");
        drive::write_snapshot(&inputs, &snap).expect("snapshot written");
        let reference = Reference::build(&inputs, &base).expect("reference answers");
        let handle = Server::spawn(ServerConfig::default()).expect("server starts");
        let spans = dir.join("spans.jsonl");
        let l = layers::traced_run(handle.addr(), &inputs, &snap, &reference, 0.2, &spans)
            .expect("traced run");
        handle.shutdown();
        assert_eq!(l.failed, 0);
        assert_eq!(l.metrics.len(), 31, "{}", workload.name());
        let get = |name: &str| l.metrics.iter().find(|m| m.0 == name).expect(name).1;
        assert!(get("protocol.dispatch_us") > 0.0);
        assert!(get("parse.us") > 0.0 && get("bind.us") > 0.0);
        assert!(get("graph.edge_list_ms") > 0.0 && get("storage.snapshot_open_ms") > 0.0);
        assert!(get("trace.coverage_pct") > 0.0);
        if workload == Workload::LiveUpdates {
            assert!(get("delta.apply_us") > 0.0 && get("delta.maintain_us") > 0.0);
        }
        let dumped = std::fs::read_to_string(&spans).expect("spans dumped");
        assert!(dumped.lines().count() > 10);
        for line in dumped.lines() {
            ecrpq_util::json::parse(line).expect("each span line is JSON");
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for workload in Workload::ALL {
        let a = gen::inputs(workload, 42, Size::Full);
        assert_eq!(a, gen::inputs(workload, 42, Size::Full), "{}", workload.name());
        assert_ne!(a.edges, gen::inputs(workload, 43, Size::Full).edges, "{}", workload.name());
        let texts = |inputs| {
            let mut adhoc = AdhocTexts::new(inputs, 0);
            (0..20).map(|_| adhoc.next_text()).collect::<Vec<_>>()
        };
        assert_eq!(texts(&a), texts(&gen::inputs(workload, 42, Size::Full)));
    }
}

#[test]
fn inputs_have_the_stated_shape() {
    let live = gen::inputs(Workload::LiveUpdates, 1, Size::Full);
    let g = check::base_graph(&live).expect("edge list parses");
    assert!(g.num_nodes() > 19_000 && g.num_edges() > 80_000);
    assert_eq!(live.batches.len(), gen::LIVE_BATCHES);
    let base: std::collections::HashSet<&str> = live.edges.lines().collect();
    for batch in &live.batches {
        assert_eq!(batch.len(), gen::BATCH_EDGES);
        for (f, l, t) in batch {
            assert!(!base.contains(format!("{f} {l} {t}").as_str()), "batch edge in the base");
            assert!(g.node_by_name(f).is_some() && g.node_by_name(t).is_some());
        }
    }
    let point = gen::inputs(Workload::PointReads, 1, Size::Full);
    let mut adhoc = AdhocTexts::new(&point, 0);
    let mut other = AdhocTexts::new(&point, 1);
    let mine: std::collections::HashSet<String> = (0..200).map(|_| adhoc.next_text()).collect();
    assert_eq!(mine.len(), 200, "ad-hoc texts never repeat");
    assert!((0..200).all(|_| !mine.contains(&other.next_text())), "connections never share a text");
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let mut rec = Recorder::new();
    rec.next_request();
    let root = rec.add("root", None, 0, 100);
    let a = rec.add("a", Some(root), 10, 30);
    rec.add("b", Some(root), 20, 50); // overlaps `a`: [10, 50) counted once
    rec.add("c", Some(root), 90, 120); // sticks out: only [90, 100) counts
    rec.add("a.x", Some(a), 12, 15);
    rec.add("a.y", Some(a), 14, 20);
    assert_eq!(rec.self_ns(root), 100 - 40 - 10);
    assert_eq!(rec.self_ns(a), 20 - 8);
    assert_eq!(rec.descendants(root).len(), 5);
    // A leaf's self time is its duration.
    assert_eq!(rec.self_ns(rec.spans.len() - 1), 6);
}

#[test]
fn quantiles_use_nearest_rank_and_tail_needs_ten_beyond() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&xs, 0.5), 50.0);
    assert_eq!(quantile(&xs, 0.9), 90.0);
    assert_eq!(quantile(&xs, 0.99), 99.0);
    assert_eq!(quantile(&[3.0, f64::INFINITY, 1.0], 1.0), f64::INFINITY);
    assert!(tail_supported(1000, 0.99) && !tail_supported(999, 0.99));
    assert!(tail_supported(100, 0.9) && !tail_supported(99, 0.9));
}
