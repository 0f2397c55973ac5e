//! Benchmark-side spans around every call into a layer. Kept in memory
//! and written to `benchmark/out/<workload>.trace.json` when the run
//! ends; a disabled tracer (the untraced run) records nothing.

use std::time::Instant;

use crate::json::quote;

pub struct Span {
    pub name: &'static str,
    /// The crate the wrapped call enters.
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the merged list.
    pub parent: Option<usize>,
    /// Spans of one op share its id.
    pub op: Option<u64>,
    /// 0 = the driver thread, `r + 1` = message-passing rank `r`.
    pub thread: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::on_thread(enabled, Instant::now(), 0)
    }

    /// A tracer for another thread of the same run: same time origin,
    /// merged back with [`absorb`](Tracer::absorb).
    pub fn on_thread(enabled: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str, op: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            op,
            thread: self.thread,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// [`begin`](Tracer::begin) when `record`, else a handle that
    /// [`end`](Tracer::end) ignores.
    pub fn begin_if(
        &mut self,
        record: bool,
        name: &'static str,
        layer: &'static str,
        op: Option<u64>,
    ) -> SpanId {
        if record {
            self.begin(name, layer, op)
        } else {
            SpanId(None)
        }
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            self.spans[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Time `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, layer, op);
        let out = f();
        self.end(id);
        out
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":{},\"layer\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"op\":{},\"thread\":{}}}",
                    quote(s.name),
                    quote(s.layer),
                    s.start_us,
                    s.end_us,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op.map_or("null".to_string(), |o| o.to_string()),
                    s.thread
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}
