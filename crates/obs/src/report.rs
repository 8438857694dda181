//! Draining recorded data into an exportable report.
//!
//! [`TraceReport::capture`] snapshots every thread buffer plus the
//! counter/gauge tables. Exports:
//!
//! * [`TraceReport::chrome_trace`] — Chrome Trace Event Format JSON
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>).
//! * [`TraceReport::metrics_json`] — the unified metrics document
//!   (schema `kcore-trace-metrics/v1`): counters, gauges, and
//!   per-span-name aggregates.
//! * [`TraceReport::span_tree`] — a deterministic text rendering of
//!   the span hierarchy (names, nesting, counts — no timings), which
//!   is what the snapshot test pins.

use crate::registry;
use crate::ring::{self, RecordKind};

/// One decoded record with its name resolved.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    pub nanos: u64,
    pub name: &'static str,
    pub kind: RecordKind,
    pub arg: u64,
}

/// All records from one thread, oldest first.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Dense trace-thread id (buffer registration order).
    pub tid: u32,
    pub records: Vec<TraceRecord>,
}

/// Aggregate for one span name: how often it ran and for how long.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_nanos: u64,
}

/// A drained snapshot of everything the obs layer recorded.
pub struct TraceReport {
    pub threads: Vec<ThreadTrace>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    /// Records lost to ring wrap, summed over threads.
    pub dropped: u64,
    level: crate::Level,
}

impl TraceReport {
    /// Drain all thread buffers and metric tables. Run at quiescence
    /// (no instrumented work in flight) for a coherent timeline.
    pub fn capture() -> TraceReport {
        let mut threads = Vec::new();
        let mut dropped = 0;
        for (tid, raw, lost) in ring::drain_all() {
            dropped += lost;
            let records = raw
                .iter()
                .map(|r| TraceRecord {
                    nanos: r.nanos,
                    name: registry::name_of(r.name_id),
                    kind: r.kind,
                    arg: r.arg,
                })
                .collect();
            threads.push(ThreadTrace { tid, records });
        }
        TraceReport {
            threads,
            counters: registry::counter_snapshot(),
            gauges: registry::gauge_snapshot(),
            dropped,
            level: crate::level(),
        }
    }

    /// True if nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(|t| t.records.is_empty())
            && self.counters.iter().all(|(_, v)| *v == 0)
            && self.gauges.is_empty()
    }

    /// Number of completed-or-open spans named `name` (counts Begin
    /// records across all threads).
    pub fn span_count(&self, name: &str) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| &t.records)
            .filter(|r| r.kind == RecordKind::Begin && r.name == name)
            .count() as u64
    }

    /// Per-span-name aggregates (count + total nanos of completed
    /// spans), sorted by name.
    pub fn span_aggregates(&self) -> Vec<(String, SpanAgg)> {
        let mut aggs: std::collections::BTreeMap<&str, SpanAgg> = Default::default();
        for t in &self.threads {
            let mut stack: Vec<(&str, u64)> = Vec::new();
            for r in &t.records {
                match r.kind {
                    RecordKind::Begin => {
                        aggs.entry(r.name).or_default().count += 1;
                        stack.push((r.name, r.nanos));
                    }
                    RecordKind::End => {
                        if let Some((name, begin)) = stack.pop() {
                            aggs.entry(name).or_default().total_nanos +=
                                r.nanos.saturating_sub(begin);
                        }
                    }
                    RecordKind::Instant => {
                        aggs.entry(r.name).or_default().count += 1;
                    }
                }
            }
        }
        aggs.into_iter().map(|(n, a)| (n.to_owned(), a)).collect()
    }

    /// Chrome Trace Event Format. `ts` is microseconds since the
    /// trace epoch; `pid` is always 1; `tid` is the dense trace id.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        for t in &self.threads {
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"kcore-{}\"}}}}",
                    t.tid, t.tid
                ),
                &mut first,
            );
            for r in &t.records {
                let ts = r.nanos as f64 / 1000.0;
                let ev = match r.kind {
                    RecordKind::Begin => format!(
                        "{{\"name\":{},\"ph\":\"B\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\
                         \"args\":{{\"arg\":{}}}}}",
                        json_str(r.name),
                        t.tid,
                        r.arg
                    ),
                    RecordKind::End if r.arg != 0 => format!(
                        "{{\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\
                         \"args\":{{\"arg\":{}}}}}",
                        t.tid, r.arg
                    ),
                    RecordKind::End => {
                        format!("{{\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{}}}", t.tid)
                    }
                    RecordKind::Instant => format!(
                        "{{\"name\":{},\"ph\":\"i\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\
                         \"s\":\"t\",\"args\":{{\"arg\":{}}}}}",
                        json_str(r.name),
                        t.tid,
                        r.arg
                    ),
                };
                push(ev, &mut first);
            }
        }
        // Counters and gauges as a final counter sample each, so the
        // totals are visible on the timeline view too.
        let last_ts =
            self.threads.iter().flat_map(|t| &t.records).map(|r| r.nanos).max().unwrap_or(0) as f64
                / 1000.0;
        for (name, value) in self.counters.iter().chain(&self.gauges) {
            push(
                format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{last_ts:.3},\"pid\":1,\
                     \"args\":{{\"value\":{value}}}}}",
                    json_str(name)
                ),
                &mut first,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// The unified metrics document, schema `kcore-trace-metrics/v1`:
    ///
    /// ```json
    /// {
    ///   "schema": "kcore-trace-metrics/v1",
    ///   "level": "spans",
    ///   "counters": {"engine.subrounds": 42, ...},
    ///   "gauges": {"run.rounds": 7, ...},
    ///   "spans": {"round": {"count": 7, "total_ns": 123456}, ...},
    ///   "dropped_records": 0
    /// }
    /// ```
    pub fn metrics_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":\"kcore-trace-metrics/v1\",\"level\":");
        out.push_str(&json_str(self.level.as_str()));
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{value}", json_str(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{value}", json_str(name)));
        }
        out.push_str("},\"spans\":{");
        for (i, (name, agg)) in self.span_aggregates().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"total_ns\":{}}}",
                json_str(name),
                agg.count,
                agg.total_nanos
            ));
        }
        out.push_str(&format!("}},\"dropped_records\":{}}}", self.dropped));
        out
    }

    /// Deterministic text rendering of the span hierarchy for one
    /// thread: children are grouped under their parent *by name* with
    /// occurrence counts, so timings and interleavings don't leak in.
    ///
    /// ```text
    /// kcore x1
    ///   round x3
    ///     subround x5
    /// ```
    pub fn span_tree(&self, tid: u32) -> String {
        let mut root = TreeNode::default();
        for t in self.threads.iter().filter(|t| t.tid == tid) {
            let mut path: Vec<&str> = Vec::new();
            for r in &t.records {
                match r.kind {
                    RecordKind::Begin => {
                        path.push(r.name);
                        root.touch(&path);
                    }
                    RecordKind::End => {
                        path.pop();
                    }
                    RecordKind::Instant => {
                        path.push(r.name);
                        root.touch(&path);
                        path.pop();
                    }
                }
            }
        }
        let mut out = String::new();
        root.render(&mut out, 0);
        out
    }

    /// The dense trace id of the calling thread, if it recorded
    /// anything yet. Lets tests scope assertions to their own thread.
    pub fn current_tid() -> Option<u32> {
        ring::current_tid()
    }
}

/// Name-aggregated span tree; insertion-ordered children.
#[derive(Default)]
struct TreeNode {
    children: Vec<(String, u64, TreeNode)>,
}

impl TreeNode {
    fn touch(&mut self, path: &[&str]) {
        let Some((head, rest)) = path.split_first() else { return };
        let child = match self.children.iter_mut().position(|(n, _, _)| n == head) {
            Some(i) => &mut self.children[i],
            None => {
                self.children.push((head.to_string(), 0, TreeNode::default()));
                self.children.last_mut().unwrap()
            }
        };
        if rest.is_empty() {
            child.1 += 1;
        } else {
            child.2.touch(rest);
        }
    }

    fn render(&self, out: &mut String, depth: usize) {
        for (name, count, node) in &self.children {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!("{name} x{count}\n"));
            node.render(out, depth + 1);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
