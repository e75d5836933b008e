//! The harness's own spans: one record per layer boundary, kept in
//! memory and written out when the run ends.
//!
//! A write is a root span `write` whose children are its hops `client`
//! → `writeq_wait` → `follower` → `leaderq_wait` → `leader`, contiguous
//! on the virtual clock and sharing the request's `session/request id`.
//! A function invocation serves a batch of requests: it is a root span
//! `follower.invocation` / `leader.invocation` with the extent of the
//! batch's hop spans, and the program's phase labels and the host time
//! of the call are its children. A layer's self time is its span minus
//! the part its children cover.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

/// The hops of a write, in order.
pub const HOPS: [&str; 5] = [
    "client",
    "writeq_wait",
    "follower",
    "leaderq_wait",
    "leader",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    Virtual,
    Host,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// The request the span belongs to: an interned session and the
    /// session's request id.
    pub session: u32,
    pub request_id: u64,
    pub name: Cow<'static, str>,
    pub clock: ClockKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    sessions: Vec<String>,
    interned: HashMap<String, u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// The id spans use for `session`.
    pub fn session(&mut self, session: &str) -> u32 {
        if let Some(id) = self.interned.get(session) {
            return *id;
        }
        let id = self.sessions.len() as u32;
        self.sessions.push(session.to_owned());
        self.interned.insert(session.to_owned(), id);
        id
    }

    /// Records a span and returns its id.
    pub fn span(
        &mut self,
        parent: u32,
        request: (u32, u64),
        name: impl Into<Cow<'static, str>>,
        clock: ClockKind,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            session: request.0,
            request_id: request.1,
            name: name.into(),
            clock,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Over every `write` root span: the largest gap between the span
    /// and the sum of its hops, as a share of the span. `None` when no
    /// write was traced.
    pub fn max_hop_gap(&self) -> Option<f64> {
        let mut hop_sums: HashMap<u32, u64> = HashMap::new();
        for span in &self.spans {
            if span.parent != 0 && HOPS.contains(&span.name.as_ref()) {
                *hop_sums.entry(span.parent).or_insert(0) += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .filter(|span| span.parent == 0 && span.name == "write")
            .map(|root| {
                let latency = (root.end_ns - root.start_ns) as f64;
                let hops = hop_sums.get(&root.id).copied().unwrap_or(0) as f64;
                (latency - hops).abs() / latency.max(1.0)
            })
            .reduce(f64::max)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let clock = match span.clock {
                ClockKind::Virtual => "v",
                ClockKind::Host => "host",
            };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": \"{}/{}\", \"name\": \"{}\", \"clock\": \"{clock}\", \"start\": {}, \"end\": {}}}",
                span.id,
                span.parent,
                self.sessions[span.session as usize],
                span.request_id,
                span.name,
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}
