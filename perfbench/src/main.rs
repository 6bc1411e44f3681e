//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` starts the server binary at PATH, sets it up several times
//! (reporting the median set-up time), drives the workload's closed loop
//! over loopback TCP (a short untimed warm-up, then S measured seconds),
//! checks every reply, and prints the end-to-end metrics. `--trace 1`
//! prints the per-layer metrics of the traced run instead. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A wrong answer prints
//! `"correct": false` and exits with status 1.

use perfbench::check::{self, Reference};
use perfbench::drive::{self, Kind, Outcome};
use perfbench::gen::{self, Inputs, Size, Workload};
use perfbench::layers;
use perfbench::net::{Conn, ServerProcess};
use perfbench::stats::{median, quantile, tail_supported};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Server set-ups per measured run: at least `MIN_SETUPS`, and more until
/// `SETUP_BUDGET` has passed. `setup_s` is their median; a set-up of a few
/// milliseconds is mostly process start-up, whose noise only many samples
/// average out.
const MIN_SETUPS: usize = 9;
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_secs(3);

/// Seconds of untimed closed-loop load between the last set-up and the
/// measured window, so the window starts after the earlier set-ups'
/// servers are gone and the caches are warm.
const WARMUP_S: f64 = 2.0;

/// The end-to-end metrics of `BENCHMARK.json`: the ones every workload has.
const GATED: [&str; 5] = ["setup_s", "throughput_ops", "run_p50_ms", "run_p90_ms", "peak_rss_mb"];

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut server, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds expects a number")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One printed metric: name, value, unit, sample count.
type Line = (&'static str, f64, &'static str, usize);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn host_facts() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    // Git must not look above the current directory for a repository.
    let here = std::env::current_dir().ok();
    let parent = here.as_deref().and_then(Path::parent).unwrap_or(Path::new("/"));
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("host nproc={nproc} profile={profile} commit={commit}");
}

/// Returns whether every check passed.
fn run(args: &Args) -> Result<bool, String> {
    host_facts();
    let work = std::env::current_dir().map_err(|e| e.to_string())?.join(".perfbench");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let inputs = gen::inputs(args.workload, args.seed, Size::Full);
    println!(
        "workload {} seed={} connections={} loop=closed seconds={} trace={}",
        args.workload.name(),
        args.seed,
        inputs.connections,
        args.seconds,
        args.trace as u8
    );
    // Untimed: the snapshot the analytic workload opens (and the traced run
    // reads), and the expected answers.
    let snap = work.join(format!("{}-{}.snap", args.workload.name(), args.seed));
    let base = check::base_graph(&inputs)?;
    let needs_snapshot = args.workload == Workload::AnalyticQueries || args.trace;
    if needs_snapshot {
        drive::write_snapshot(&inputs, &snap)?;
    }
    let reference = if args.workload == Workload::AnalyticQueries {
        let (g, _) = ecrpq_graph::snapshot::open(&snap).map_err(|e| e.to_string())?;
        Reference::build(&inputs, &g)?
    } else {
        Reference::build(&inputs, &base)?
    };
    let server_input = (args.workload == Workload::AnalyticQueries).then_some(snap.as_path());

    if args.trace {
        let spans = work.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
        let server = ServerProcess::spawn(&args.server)?;
        let l =
            layers::traced_run(server.addr(), &inputs, &snap, &reference, args.seconds, &spans)?;
        server.stop()?;
        println!("spans written to {}", spans.display());
        for (name, value, unit) in &l.metrics {
            println!("layer {name} = {value} {unit}");
        }
        print_result(true, l.attempted, l.failed, &l.metrics);
        return Ok(true);
    }

    let (outcome, setup_s, rss) = measured(args, &inputs, server_input, &reference, &base)?;
    let verified = drive::verify(&outcome, &base, &reference);
    let correct = match &verified {
        Ok(n) => {
            println!("checked {n} distinct replies: all correct");
            true
        }
        Err(e) => {
            println!("WRONG ANSWER: {e}");
            false
        }
    };
    let rates: Vec<String> = outcome.rates().iter().map(|r| format!("{r:.1}")).collect();
    println!("completion rate per tenth of the window (ops/s): {}", rates.join(" "));
    for (i, s) in inputs.statements.iter().enumerate() {
        let ms = outcome.run_ms_by_statement.get(&i).map_or(&[][..], Vec::as_slice);
        println!(
            "statement {} ({}) run_p50_ms = {} ms, run_p90_ms = {} ms (samples={})",
            s.name,
            s.mode.as_str(),
            median(ms),
            quantile(ms, 0.9),
            ms.len()
        );
    }
    let lines = end_to_end(args.workload, &outcome, &setup_s, rss);
    for (name, value, unit, n) in &lines {
        println!("metric {name} = {value} {unit} (samples={n})");
    }
    let metrics: Vec<(&str, f64, &str)> =
        lines.iter().filter(|l| GATED.contains(&l.0)).map(|&(n, v, u, _)| (n, v, u)).collect();
    let finite = metrics.iter().all(|m| m.1.is_finite());
    print_result(correct && finite, outcome.attempted, outcome.failed, &metrics);
    Ok(correct)
}

/// Set-up (several times) and the measured window; returns the outcome,
/// the set-up times and the server's peak RSS.
fn measured(
    args: &Args,
    inputs: &Inputs,
    server_input: Option<&Path>,
    reference: &Reference,
    base: &ecrpq_graph::GraphDb,
) -> Result<(Outcome, Vec<f64>, f64), String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut server = None;
    let started = Instant::now();
    while setup_s.len() < MIN_SETUPS || started.elapsed() < SETUP_BUDGET {
        if let Some(previous) = server.take() {
            ServerProcess::stop(previous)?;
        }
        let start = Instant::now();
        let s = ServerProcess::spawn(&args.server)?;
        let mut conn = Conn::connect(s.addr()).map_err(|e| e.to_string())?;
        drive::setup(&mut drive::over_tcp(&mut conn), inputs, server_input, reference)?;
        setup_s.push(start.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let outcome = drive::measure(server.addr(), inputs, WARMUP_S, args.seconds)?;
    let rss = server.peak_rss_mb().ok_or("cannot read the server's VmHWM")?;
    if inputs.workload == Workload::LiveUpdates {
        drive::verify_live_end(server.addr(), inputs, base)?;
        println!("maintained answers after the run match a cold run on the force-merged graph");
    }
    server.stop()?;
    Ok((outcome, setup_s, rss))
}

/// Every end-to-end figure the workload has, with its sample count.
fn end_to_end(workload: Workload, o: &Outcome, setup_s: &[f64], rss: f64) -> Vec<Line> {
    let ms = |kind: Kind| &o.latency_ms[kind as usize];
    let runs = ms(Kind::Run);
    // The median of ten partial rates: a burst of outside load on the host
    // moves it less than the window's mean rate.
    let rates = o.rates();
    let mut lines: Vec<Line> = vec![
        ("setup_s", median(setup_s), "s", setup_s.len()),
        ("throughput_ops", median(&rates), "ops/s", o.done.len()),
        ("run_p50_ms", quantile(runs, 0.5), "ms", runs.len()),
        ("run_p90_ms", quantile(runs, 0.9), "ms", runs.len()),
    ];
    if workload != Workload::AnalyticQueries && tail_supported(runs.len(), 0.99) {
        lines.push(("run_p99_ms", quantile(runs, 0.99), "ms", runs.len()));
    }
    if workload == Workload::PointReads {
        let (b, a) = (ms(Kind::Batch), ms(Kind::Adhoc));
        lines.push(("batch_p50_ms", quantile(b, 0.5), "ms", b.len()));
        lines.push(("adhoc_p50_ms", quantile(a, 0.5), "ms", a.len()));
    }
    if workload == Workload::LiveUpdates {
        let w = ms(Kind::Write);
        lines.push(("write_p50_ms", quantile(w, 0.5), "ms", w.len()));
        if tail_supported(w.len(), 0.99) {
            lines.push(("write_p99_ms", quantile(w, 0.99), "ms", w.len()));
        }
    }
    lines.push((
        "error_rate",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
        o.attempted as usize,
    ));
    lines.push(("peak_rss_mb", rss, "MiB", 1));
    lines
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { format!("{value}") } else { "null".into() };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {{{}}}}}"#,
        attempted.max(1),
        body.join(", ")
    );
}
