//! Benchmark-side spans: named intervals with a parent and a request id,
//! kept in memory and written out when the traced run ends.

use ecrpq::Trace;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `protocol.dispatch` or the engine's `reach:p`.
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Counts measured at the boundary (pairs, states, bytes, …).
    pub attrs: Vec<(String, u64)>,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// An attribute's value.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// A span recorder: a stack of open spans over one clock.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    kids: Vec<Vec<usize>>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            kids: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new request: later root spans carry its id.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    fn push(&mut self, span: Span) -> usize {
        let idx = self.spans.len();
        if let Some(p) = span.parent {
            self.kids[p].push(idx);
        }
        self.spans.push(span);
        self.kids.push(Vec::new());
        idx
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let start_ns = self.now_ns();
        let idx = self.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            request: self.request,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.open.push(idx);
        idx
    }

    /// Adds an already-measured span (used by tests and for imported
    /// intervals).
    pub fn add(&mut self, name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> usize {
        self.push(Span {
            name: name.to_string(),
            parent,
            request: self.request,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        })
    }

    /// Closes span `idx` (and any span opened inside it and left open).
    pub fn end(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Attaches a count to span `idx`.
    pub fn attr(&mut self, idx: usize, key: &str, value: u64) {
        self.spans[idx].attrs.push((key.to_string(), value));
    }

    /// Runs `f` inside a span named `name`; returns its result and the span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, usize) {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        (out, idx)
    }

    /// Runs `f` with a fresh engine [`Trace`] inside a span named `name`,
    /// then adds the engine's spans (plan, reach, compile, search) as
    /// descendants of it.
    pub fn time_traced<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> (T, usize) {
        let idx = self.begin(name);
        let offset = self.now_ns();
        let mut trace = Trace::new();
        let out = f(&mut trace);
        self.end(idx);
        let base = self.spans.len();
        for s in &trace.spans {
            let start_ns = offset + s.start_ns;
            let parent = Some(s.parent.map_or(idx, |p| base + p));
            let i = self.add(&s.name, parent, start_ns, start_ns + s.dur_ns);
            self.spans[i].attrs = s.attrs.clone();
        }
        (out, idx)
    }

    /// Children of span `idx`.
    pub fn children(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        self.kids[idx].iter().copied()
    }

    /// Descendants of span `idx` (children, their children, …).
    pub fn descendants(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack: Vec<usize> = self.children(idx).collect();
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend(self.children(c));
        }
        out
    }

    /// Self time of span `idx`: its duration minus the part of it that its
    /// children's intervals cover (overlapping children counted once).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let mut covered: Vec<(u64, u64)> = self
            .children(idx)
            .map(|c| {
                let s = &self.spans[c];
                (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns))
            })
            .filter(|(a, b)| a < b)
            .collect();
        covered.sort_unstable();
        let (mut total, mut reach) = (0u64, span.start_ns);
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                total += b - a;
                reach = b;
            }
        }
        span.dur_ns().saturating_sub(total)
    }

    /// Writes every span as one JSON object per line.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", ecrpq_util::json::escape(k)))
                .collect();
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","parent":{parent},"request":{},"start_ns":{},"end_ns":{},"attrs":{{{}}}}}"#,
                ecrpq_util::json::escape(&s.name),
                s.request,
                s.start_ns,
                s.end_ns,
                attrs.join(",")
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}
