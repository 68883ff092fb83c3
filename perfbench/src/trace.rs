//! Spans recorded by the benchmark around each call it makes into a layer's
//! public function. Kept in memory on the running thread and written out
//! once, at the end, as Chrome trace-event JSON (opens in Perfetto or
//! `chrome://tracing`).
//!
//! A span may also carry *attributions*: time inside the span that belongs
//! to another layer but has no span of its own, because the benchmark only
//! sees the layer's entry point. They come from counters read around the
//! call (the solver's kernel nanoseconds, the engine's per-target times) or
//! from the setup decomposition, which calls the build steps one by one on
//! the same inputs. A span's self time is its duration minus its child spans
//! and its attributions.
//!
//! With tracing off, [`span`] is a plain call: no clock read, no allocation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    attrib: Vec<(&'static str, u64)>,
    child_ns: u64,
}

#[derive(Default)]
struct Tracer {
    on: bool,
    t0: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    last_closed: Option<usize>,
    op: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Per-layer totals derived from the spans.
#[derive(Default, Clone)]
pub struct LayerTable {
    /// Layer -> (self nanoseconds, spans).
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Sum of root-span durations: the traced time the shares refer to.
    pub root_ns: u64,
    pub spans: u64,
}

impl LayerTable {
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |v| v.0)
    }

    /// Share of the traced time spent in `layer`'s own code, in percent.
    pub fn share_pct(&self, layer: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        100.0 * self.self_ns(layer) as f64 / self.root_ns as f64
    }
}

pub fn set_enabled(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        if on && t.t0.is_none() {
            t.t0 = Some(Instant::now());
        }
    });
}

pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().on)
}

/// Starts a new request: every span opened from now on shares its id.
pub fn begin_op() {
    TRACER.with(|t| t.borrow_mut().op += 1);
}

fn now_ns(t: &Tracer) -> u64 {
    t.t0.expect("tracer enabled").elapsed().as_nanos() as u64
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let start_ns = now_ns(&t);
        let parent = t.stack.last().copied();
        let op = t.op;
        t.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            attrib: Vec::new(),
            child_ns: 0,
        });
        let idx = t.spans.len() - 1;
        t.stack.push(idx);
        idx
    });
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = now_ns(&t);
        t.stack.pop();
        t.last_closed = Some(idx);
        let (parent, dur) = {
            let s = &mut t.spans[idx];
            s.end_ns = end_ns;
            (s.parent, end_ns - s.start_ns)
        };
        if let Some(p) = parent {
            t.spans[p].child_ns += dur;
        }
    });
    out
}

/// Names time inside the span that closed last as belonging to other
/// layers (read off counters after the call, so off the clock).
pub fn attribute_last(attrib: Vec<(&'static str, u64)>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if let (true, Some(idx)) = (t.on, t.last_closed) {
            t.spans[idx].attrib.extend(attrib);
        }
    });
}

/// Takes every recorded span: the per-layer table plus the trace file text.
pub fn drain() -> (LayerTable, String) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let spans = std::mem::take(&mut t.spans);
        t.stack.clear();
        t.last_closed = None;
        let mut table = LayerTable {
            spans: spans.len() as u64,
            ..LayerTable::default()
        };
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            if s.parent.is_none() {
                table.root_ns += dur;
            }
            let mut own = dur.saturating_sub(s.child_ns);
            for &(layer, ns) in &s.attrib {
                let ns = ns.min(own);
                own -= ns;
                table.layers.entry(layer).or_default().0 += ns;
            }
            let e = table.layers.entry(s.layer).or_default();
            e.0 += own;
            e.1 += 1;
        }
        (table, chrome_json(&spans))
    })
}

fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"op\":{},\"parent\":{}",
            s.layer,
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            s.op,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
        for (layer, ns) in &s.attrib {
            let _ = write!(out, ",\"{layer}_us\":{:.3}", *ns as f64 / 1e3);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}
