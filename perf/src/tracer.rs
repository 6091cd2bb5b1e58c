//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer: name, start, end, parent span and (for serving) the
//! request id. They stay in memory until the run ends and are then
//! written out as JSON. A disabled tracer records nothing, so the
//! untraced runs that produce the end-to-end numbers pay one branch
//! per span.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of "no parent".
pub const ROOT: u32 = 0;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based, in start order).
    pub id: u32,
    /// Enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Layer call, named `<crate>.<call>`.
    pub name: Cow<'static, str>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Serving request id, if the span belongs to one request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`, and otherwise
    /// records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: u32,
        request: Option<u64>,
    ) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: ROOT,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            tracer: self,
            id,
            open: Some(Open {
                parent,
                name: name.into(),
                start_ns: self.now_ns(),
                request,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Every finished span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Fraction of span `parent`'s duration covered by its direct
    /// children (1 when the children account for all of it).
    pub fn child_coverage(&self, parent: u32) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        let Some(p) = spans.iter().find(|s| s.id == parent) else {
            return 0.0;
        };
        let covered: u64 = spans
            .iter()
            .filter(|s| s.parent == parent)
            .map(Span::duration_ns)
            .sum();
        covered as f64 / p.duration_ns().max(1) as f64
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                let request = s.request.map_or("null".to_string(), |r| r.to_string());
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"request\": {}}}",
                    s.id, s.parent, s.name, s.start_ns, s.end_ns, request
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

#[derive(Debug)]
struct Open {
    parent: u32,
    name: Cow<'static, str>,
    start_ns: u64,
    request: Option<u64>,
}

/// An open span; records itself on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
    open: Option<Open>,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the parent of nested spans
    /// ([`ROOT`] when tracing is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let span = Span {
            id: self.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.tracer.now_ns(),
            request: open.request,
        };
        // A poisoned store means another thread panicked; losing this
        // span is preferable to a second panic inside `drop`.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let s = t.span("a", ROOT, None);
            assert_eq!(s.id(), ROOT);
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_keep_parent_and_request() {
        let t = Tracer::new(true);
        {
            let outer = t.span("outer", ROOT, None);
            let _inner = t.span(format!("inner.{}", 1), outer.id(), Some(9));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].request, Some(9));
        assert_eq!(spans[1].name, "inner.1");
        assert!(t.child_coverage(spans[0].id) <= 1.0);
        assert!(t.to_json().contains("\"request\": 9"));
    }
}
